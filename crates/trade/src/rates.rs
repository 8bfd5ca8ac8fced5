//! Service-rates records and rate quotes.
//!
//! The Grid Trade Server generates a rates record per agreement; GBCM
//! later prices the RUR against it. §2.1: "The service rates record
//! generated by the GTS and the Resource Usage Record must conform to
//! each other. For every chargeable item in the rates record there must
//! be a corresponding item in the RUR."

use gridbank_rur::record::{ChargeableItem, ResourceUsageRecord};
use gridbank_rur::{Credits, RurError};

use crate::error::TradeError;

/// A price per chargeable item — the GTS's rates record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceRates {
    entries: Vec<(ChargeableItem, Credits)>,
}

impl ServiceRates {
    /// An empty rates record (free service).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the price for one item (replacing any previous price).
    pub fn with(mut self, item: ChargeableItem, price: Credits) -> Self {
        self.set(item, price);
        self
    }

    /// Sets the price for one item.
    pub fn set(&mut self, item: ChargeableItem, price: Credits) {
        if let Some(e) = self.entries.iter_mut().find(|(i, _)| *i == item) {
            e.1 = price;
        } else {
            self.entries.push((item, price));
        }
    }

    /// The price for an item, if priced.
    pub fn price(&self, item: ChargeableItem) -> Option<Credits> {
        self.entries.iter().find(|(i, _)| *i == item).map(|(_, p)| *p)
    }

    /// Iterates `(item, price)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (ChargeableItem, Credits)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of priced items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is priced.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// "Total price per time unit" from the paper's RUR field list: the
    /// sum of the time-priced items (wall clock, CPU, software), in G$ per
    /// hour. Occupancy/data items can't be folded into a per-hour figure
    /// without workload knowledge, so they are excluded here and priced
    /// itemized.
    pub fn total_time_price_per_hour(&self) -> Credits {
        self.entries
            .iter()
            .filter(|(i, _)| {
                matches!(
                    i,
                    ChargeableItem::WallClock | ChargeableItem::Cpu | ChargeableItem::Software
                )
            })
            .map(|(_, p)| *p)
            .sum()
    }

    /// Checks §2.1 conformance: every item priced in this record must have
    /// a usage line in the RUR, and every usage line must be priced here
    /// **with the agreed price** (otherwise a provider could bill at rates
    /// never negotiated).
    pub fn conforms_to(&self, rur: &ResourceUsageRecord) -> Result<(), TradeError> {
        for (item, price) in &self.entries {
            let line = rur.line(*item).ok_or_else(|| {
                TradeError::Nonconforming(format!(
                    "rates price {item:?} but the RUR has no usage line for it"
                ))
            })?;
            if line.price_per_unit != *price {
                return Err(TradeError::Nonconforming(format!(
                    "RUR prices {item:?} at {} but the agreed rate is {price}",
                    line.price_per_unit
                )));
            }
        }
        for line in &rur.lines {
            if self.price(line.item).is_none() {
                return Err(TradeError::Nonconforming(format!(
                    "RUR meters {:?} but the rates record does not price it",
                    line.item
                )));
            }
        }
        Ok(())
    }

    /// Computes the total charge for a conforming RUR.
    pub fn charge(&self, rur: &ResourceUsageRecord) -> Result<Credits, TradeError> {
        self.conforms_to(rur)?;
        rur.total_cost().map_err(|e: RurError| TradeError::Numeric(e.to_string()))
    }

    /// Scales all prices by `num/den` (supply-demand adjustments).
    pub fn scaled(&self, num: u64, den: u64) -> Result<ServiceRates, TradeError> {
        let mut out = ServiceRates::new();
        for (item, price) in &self.entries {
            let p = price.mul_ratio(num, den).map_err(|e| TradeError::Numeric(e.to_string()))?;
            out.set(*item, p);
        }
        Ok(out)
    }
}

/// A rates record bound to a provider and a validity window — what a GTS
/// hands a broker during negotiation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RateQuote {
    /// Provider certificate name the quote binds.
    pub provider: String,
    /// The offered rates.
    pub rates: ServiceRates,
    /// Quote is valid until this time (exclusive), abstract epoch ms.
    pub valid_until: u64,
    /// Monotonic quote id from the GTS.
    pub quote_id: u64,
}

impl RateQuote {
    /// Checks the quote is still valid at `now`.
    pub fn check_valid(&self, now: u64) -> Result<(), TradeError> {
        if now >= self.valid_until {
            Err(TradeError::QuoteExpired { valid_until: self.valid_until, now })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridbank_rur::record::{RurBuilder, UsageAmount};
    use gridbank_rur::units::{DataSize, Duration, MbHours};

    fn rates() -> ServiceRates {
        ServiceRates::new()
            .with(ChargeableItem::Cpu, Credits::from_gd(2))
            .with(ChargeableItem::Memory, Credits::from_milli(10))
            .with(ChargeableItem::Network, Credits::from_milli(5))
    }

    fn conforming_rur() -> ResourceUsageRecord {
        RurBuilder::default()
            .user("h", "/CN=alice")
            .job("j1", "app", 0, 3_600_000)
            .resource("r", "/CN=gsp", None, 1)
            .line(
                ChargeableItem::Cpu,
                UsageAmount::Time(Duration::from_hours(1)),
                Credits::from_gd(2),
            )
            .line(
                ChargeableItem::Memory,
                UsageAmount::Occupancy(MbHours::occupancy(
                    DataSize::from_mb(100),
                    Duration::from_hours(1),
                )),
                Credits::from_milli(10),
            )
            .line(
                ChargeableItem::Network,
                UsageAmount::Data(DataSize::from_mb(10)),
                Credits::from_milli(5),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn set_and_get_prices() {
        let mut r = rates();
        assert_eq!(r.price(ChargeableItem::Cpu), Some(Credits::from_gd(2)));
        assert_eq!(r.price(ChargeableItem::Storage), None);
        r.set(ChargeableItem::Cpu, Credits::from_gd(3));
        assert_eq!(r.price(ChargeableItem::Cpu), Some(Credits::from_gd(3)));
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn conforming_record_charges() {
        let r = rates();
        let rur = conforming_rur();
        r.conforms_to(&rur).unwrap();
        // 2 G$ cpu + 1 G$ memory (100 MBh × 0.01) + 0.05 G$ network.
        assert_eq!(r.charge(&rur).unwrap(), Credits::from_micro(3_050_000));
    }

    #[test]
    fn missing_usage_line_is_nonconforming() {
        let r = rates().with(ChargeableItem::Storage, Credits::from_milli(1));
        assert!(matches!(r.conforms_to(&conforming_rur()), Err(TradeError::Nonconforming(_))));
    }

    #[test]
    fn unpriced_usage_is_nonconforming() {
        let mut r = rates();
        // Remove the network price but leave the usage line in the RUR.
        r.entries.retain(|(i, _)| *i != ChargeableItem::Network);
        assert!(matches!(r.conforms_to(&conforming_rur()), Err(TradeError::Nonconforming(_))));
    }

    #[test]
    fn price_disagreement_is_nonconforming() {
        let r = rates().with(ChargeableItem::Cpu, Credits::from_gd(99));
        assert!(matches!(r.conforms_to(&conforming_rur()), Err(TradeError::Nonconforming(_))));
    }

    #[test]
    fn total_time_price_sums_time_items_only() {
        let r = ServiceRates::new()
            .with(ChargeableItem::WallClock, Credits::from_gd(1))
            .with(ChargeableItem::Cpu, Credits::from_gd(2))
            .with(ChargeableItem::Software, Credits::from_milli(500))
            .with(ChargeableItem::Memory, Credits::from_gd(100))
            .with(ChargeableItem::Network, Credits::from_gd(100));
        assert_eq!(r.total_time_price_per_hour(), Credits::from_micro(3_500_000));
    }

    #[test]
    fn scaling_rates() {
        let r = rates().scaled(3, 2).unwrap();
        assert_eq!(r.price(ChargeableItem::Cpu), Some(Credits::from_gd(3)));
        assert_eq!(r.price(ChargeableItem::Memory), Some(Credits::from_milli(15)));
        assert!(rates().scaled(1, 0).is_err());
    }

    #[test]
    fn quote_validity() {
        let q =
            RateQuote { provider: "/CN=gsp".into(), rates: rates(), valid_until: 100, quote_id: 1 };
        q.check_valid(99).unwrap();
        assert!(matches!(q.check_valid(100), Err(TradeError::QuoteExpired { .. })));
    }
}
