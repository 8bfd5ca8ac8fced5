//! The typed Resource Usage Record (paper §5.1).
//!
//! Field-for-field reproduction of the RUR item list the paper associates
//! with the GGF format: user details (host, certificate name), job details
//! (job id, application, start/end dates), resource details (host,
//! certificate name, host type, local job id), and one usage+price line per
//! chargeable item (wall clock, CPU, memory, storage, network, software),
//! with the total job cost derivable from the lines.

use crate::error::RurError;
use crate::money::Credits;
use crate::units::{DataSize, Duration, MbHours, BYTES_PER_MB, MS_PER_HOUR};

/// The chargeable items of §2.1 plus wall-clock time from the RUR field
/// list. "Software Libraries" are priced by system CPU time, as the paper
/// specifies.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ChargeableItem {
    /// Wall-clock duration of the job on the resource.
    WallClock,
    /// User CPU time ("Processors" in §2.1). Priced per CPU hour.
    Cpu,
    /// Main memory occupancy. Priced per MB·hour.
    Memory,
    /// Secondary storage occupancy. Priced per MB·hour.
    Storage,
    /// I/O channels / networking. Priced per MB of total traffic.
    Network,
    /// Software libraries: system CPU time. Priced per hour.
    Software,
}

impl ChargeableItem {
    /// All items, in canonical order.
    pub const ALL: [ChargeableItem; 6] = [
        ChargeableItem::WallClock,
        ChargeableItem::Cpu,
        ChargeableItem::Memory,
        ChargeableItem::Storage,
        ChargeableItem::Network,
        ChargeableItem::Software,
    ];

    /// Stable wire tag: the item's index in [`ChargeableItem::ALL`].
    pub const fn tag(self) -> u8 {
        match self {
            ChargeableItem::WallClock => 0,
            ChargeableItem::Cpu => 1,
            ChargeableItem::Memory => 2,
            ChargeableItem::Storage => 3,
            ChargeableItem::Network => 4,
            ChargeableItem::Software => 5,
        }
    }

    /// Stable name used by codecs and rate tables.
    pub fn name(&self) -> &'static str {
        match self {
            ChargeableItem::WallClock => "wallclock",
            ChargeableItem::Cpu => "cpu",
            ChargeableItem::Memory => "memory",
            ChargeableItem::Storage => "storage",
            ChargeableItem::Network => "network",
            ChargeableItem::Software => "software",
        }
    }

    /// Parses the stable name.
    pub fn from_name(name: &str) -> Option<ChargeableItem> {
        Self::ALL.iter().copied().find(|i| i.name() == name)
    }

    /// The pricing unit, for display: "per CPU hour", "per MB·hour", ...
    pub fn unit(&self) -> &'static str {
        match self {
            ChargeableItem::WallClock | ChargeableItem::Cpu | ChargeableItem::Software => "G$/hour",
            ChargeableItem::Memory | ChargeableItem::Storage => "G$/MB·hour",
            ChargeableItem::Network => "G$/MB",
        }
    }
}

/// The measured quantity for one chargeable item.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UsageAmount {
    /// A duration (wall clock, user CPU, system CPU).
    Time(Duration),
    /// A size×time occupancy (memory, storage).
    Occupancy(MbHours),
    /// A data volume (network traffic).
    Data(DataSize),
}

impl UsageAmount {
    /// True when no usage was recorded.
    pub fn is_zero(&self) -> bool {
        match self {
            UsageAmount::Time(d) => d.as_ms() == 0,
            UsageAmount::Occupancy(o) => o.as_mb_ms() == 0,
            UsageAmount::Data(s) => s.as_bytes() == 0,
        }
    }
}

impl std::fmt::Display for UsageAmount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UsageAmount::Time(d) => write!(f, "{d}"),
            UsageAmount::Occupancy(o) => write!(f, "{o}"),
            UsageAmount::Data(s) => write!(f, "{s}"),
        }
    }
}

/// One usage line: item, measured usage, and the agreed price per unit.
///
/// "For every chargeable item in the rates record there must be a
/// corresponding item in the RUR" (§2.1) — conformance is checked by
/// `gridbank_trade::rates`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UsageLine {
    /// Which chargeable item this line accounts.
    pub item: ChargeableItem,
    /// The measured quantity.
    pub usage: UsageAmount,
    /// Agreed price per unit (unit depends on the item, see
    /// [`ChargeableItem::unit`]).
    pub price_per_unit: Credits,
}

impl UsageLine {
    /// The charge for this line: `rate × usage` in the item's unit system
    /// ("The total charge is calculated by multiplying rate by usage for
    /// each item", §2.1).
    pub fn cost(&self) -> Result<Credits, RurError> {
        match (self.item, self.usage) {
            (
                ChargeableItem::WallClock | ChargeableItem::Cpu | ChargeableItem::Software,
                UsageAmount::Time(d),
            ) => self.price_per_unit.mul_ratio(d.as_ms(), MS_PER_HOUR),
            (ChargeableItem::Memory | ChargeableItem::Storage, UsageAmount::Occupancy(o)) => {
                self.price_per_unit.mul_ratio(o.as_mb_ms(), MS_PER_HOUR)
            }
            (ChargeableItem::Network, UsageAmount::Data(s)) => {
                self.price_per_unit.mul_ratio(s.as_bytes(), BYTES_PER_MB)
            }
            (item, usage) => Err(RurError::Invalid {
                field: "usage",
                why: format!("{usage:?} is the wrong quantity kind for {item:?}"),
            }),
        }
    }

    /// Checks unit consistency without computing the cost.
    pub fn validate(&self) -> Result<(), RurError> {
        self.cost().map(|_| ())
    }
}

/// User (GSC) details carried in the RUR.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UserDetails {
    /// Host name / IP the job was submitted from.
    pub host: String,
    /// Grid-wide unique certificate name of the GSC.
    pub certificate_name: String,
}

/// Job details carried in the RUR.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobDetails {
    /// Grid-global job identifier (the paper leaves the scheme open:
    /// Nimrod-G id, local pid, or a global unique id).
    pub job_id: String,
    /// Application name.
    pub application: String,
    /// Job start, epoch milliseconds (virtual time in simulations).
    pub start_ms: u64,
    /// Job end, epoch milliseconds.
    pub end_ms: u64,
}

impl JobDetails {
    /// Wall-clock span of the job.
    pub fn span(&self) -> Duration {
        Duration::from_ms(self.end_ms.saturating_sub(self.start_ms))
    }
}

/// Resource (GSP) details carried in the RUR.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ResourceDetails {
    /// Host name / IP of the resource.
    pub host: String,
    /// Grid-wide unique certificate name of the GSP.
    pub certificate_name: String,
    /// Host type, e.g. "Cray" (optional in the paper).
    pub host_type: Option<String>,
    /// Local OS process/job id, kept "to settle disputes about resource
    /// consumption".
    pub local_job_id: u64,
}

/// The OS-independent Resource Usage Record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ResourceUsageRecord {
    /// Consumer details.
    pub user: UserDetails,
    /// Job details.
    pub job: JobDetails,
    /// Provider details.
    pub resource: ResourceDetails,
    /// One line per chargeable item that was metered.
    pub lines: Vec<UsageLine>,
}

impl ResourceUsageRecord {
    /// Starts a builder.
    pub fn builder() -> RurBuilder {
        RurBuilder::default()
    }

    /// The itemized total: Σ rate×usage over all lines (§2.1).
    pub fn total_cost(&self) -> Result<Credits, RurError> {
        let mut total = Credits::ZERO;
        for line in &self.lines {
            total = total.checked_add(line.cost()?)?;
        }
        Ok(total)
    }

    /// The paper's simplified "Job Cost = (end − start) × total price per
    /// time unit" formula, meaningful when every line is time-priced; we
    /// expose it for comparison but charging uses [`Self::total_cost`].
    pub fn flat_rate_cost(&self, total_price_per_hour: Credits) -> Result<Credits, RurError> {
        total_price_per_hour.mul_ratio(self.job.span().as_ms(), MS_PER_HOUR)
    }

    /// Looks up a line by item.
    pub fn line(&self, item: ChargeableItem) -> Option<&UsageLine> {
        self.lines.iter().find(|l| l.item == item)
    }

    /// Full structural validation.
    pub fn validate(&self) -> Result<(), RurError> {
        if self.user.certificate_name.is_empty() {
            return Err(RurError::MissingField("user.certificate_name"));
        }
        if self.resource.certificate_name.is_empty() {
            return Err(RurError::MissingField("resource.certificate_name"));
        }
        if self.job.job_id.is_empty() {
            return Err(RurError::MissingField("job.job_id"));
        }
        if self.job.end_ms < self.job.start_ms {
            return Err(RurError::Invalid {
                field: "job.end_ms",
                why: format!("end {} before start {}", self.job.end_ms, self.job.start_ms),
            });
        }
        let mut seen = [false; ChargeableItem::ALL.len()];
        for line in &self.lines {
            let idx = line.item.tag() as usize;
            if seen[idx] {
                return Err(RurError::Invalid {
                    field: "lines",
                    why: format!("duplicate line for {:?}", line.item),
                });
            }
            seen[idx] = true;
            line.validate()?;
            if line.price_per_unit.is_negative() {
                return Err(RurError::Invalid {
                    field: "lines",
                    why: format!("negative price for {:?}", line.item),
                });
            }
        }
        Ok(())
    }
}

/// Builder enforcing the record's required fields.
#[derive(Default, Clone, Debug)]
pub struct RurBuilder {
    user: Option<UserDetails>,
    job: Option<JobDetails>,
    resource: Option<ResourceDetails>,
    lines: Vec<UsageLine>,
}

impl RurBuilder {
    /// Sets the consumer details.
    pub fn user(mut self, host: impl Into<String>, certificate_name: impl Into<String>) -> Self {
        self.user =
            Some(UserDetails { host: host.into(), certificate_name: certificate_name.into() });
        self
    }

    /// Sets the job details.
    pub fn job(
        mut self,
        job_id: impl Into<String>,
        application: impl Into<String>,
        start_ms: u64,
        end_ms: u64,
    ) -> Self {
        self.job = Some(JobDetails {
            job_id: job_id.into(),
            application: application.into(),
            start_ms,
            end_ms,
        });
        self
    }

    /// Sets the provider details.
    pub fn resource(
        mut self,
        host: impl Into<String>,
        certificate_name: impl Into<String>,
        host_type: Option<String>,
        local_job_id: u64,
    ) -> Self {
        self.resource = Some(ResourceDetails {
            host: host.into(),
            certificate_name: certificate_name.into(),
            host_type,
            local_job_id,
        });
        self
    }

    /// Adds a usage line.
    pub fn line(
        mut self,
        item: ChargeableItem,
        usage: UsageAmount,
        price_per_unit: Credits,
    ) -> Self {
        self.lines.push(UsageLine { item, usage, price_per_unit });
        self
    }

    /// Validates and builds the record.
    pub fn build(self) -> Result<ResourceUsageRecord, RurError> {
        let record = ResourceUsageRecord {
            user: self.user.ok_or(RurError::MissingField("user"))?,
            job: self.job.ok_or(RurError::MissingField("job"))?,
            resource: self.resource.ok_or(RurError::MissingField("resource"))?,
            lines: self.lines,
        };
        record.validate()?;
        Ok(record)
    }
}

#[cfg(test)]
pub(crate) fn sample_record() -> ResourceUsageRecord {
    ResourceUsageRecord::builder()
        .user("submit.uwa.edu.au", "/O=UWA/OU=CSSE/CN=alice")
        .job("nimrod-42", "povray-render", 1_000, 3_601_000)
        .resource(
            "cluster.unimelb.edu.au",
            "/O=UniMelb/OU=GRIDS/CN=gsp-alpha",
            Some("Linux/x86".into()),
            7_777,
        )
        .line(ChargeableItem::Cpu, UsageAmount::Time(Duration::from_hours(1)), Credits::from_gd(2))
        .line(
            ChargeableItem::Memory,
            UsageAmount::Occupancy(MbHours::occupancy(
                DataSize::from_mb(512),
                Duration::from_hours(1),
            )),
            Credits::from_milli(10),
        )
        .line(
            ChargeableItem::Network,
            UsageAmount::Data(DataSize::from_mb(100)),
            Credits::from_milli(5),
        )
        .build()
        .expect("sample record is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_names_round_trip() {
        for item in ChargeableItem::ALL {
            assert_eq!(ChargeableItem::from_name(item.name()), Some(item));
        }
        assert_eq!(ChargeableItem::from_name("nonsense"), None);
    }

    #[test]
    fn line_costs_follow_units() {
        // 2 G$/h CPU for 1h = 2 G$.
        let cpu = UsageLine {
            item: ChargeableItem::Cpu,
            usage: UsageAmount::Time(Duration::from_hours(1)),
            price_per_unit: Credits::from_gd(2),
        };
        assert_eq!(cpu.cost().unwrap(), Credits::from_gd(2));

        // 0.01 G$/MBh memory, 512 MBh = 5.12 G$.
        let mem = UsageLine {
            item: ChargeableItem::Memory,
            usage: UsageAmount::Occupancy(MbHours::occupancy(
                DataSize::from_mb(512),
                Duration::from_hours(1),
            )),
            price_per_unit: Credits::from_milli(10),
        };
        assert_eq!(mem.cost().unwrap(), Credits::from_micro(5_120_000));

        // 0.005 G$/MB network, 100 MB = 0.5 G$.
        let net = UsageLine {
            item: ChargeableItem::Network,
            usage: UsageAmount::Data(DataSize::from_mb(100)),
            price_per_unit: Credits::from_milli(5),
        };
        assert_eq!(net.cost().unwrap(), Credits::from_micro(500_000));
    }

    #[test]
    fn unit_mismatch_is_an_error() {
        let bad = UsageLine {
            item: ChargeableItem::Cpu,
            usage: UsageAmount::Data(DataSize::from_mb(1)),
            price_per_unit: Credits::from_gd(1),
        };
        assert!(matches!(bad.cost(), Err(RurError::Invalid { .. })));
    }

    #[test]
    fn sample_record_totals() {
        let r = sample_record();
        // 2 + 5.12 + 0.5 G$.
        assert_eq!(r.total_cost().unwrap(), Credits::from_micro(7_620_000));
        assert_eq!(r.job.span(), Duration::from_hours(1));
        // Flat-rate formula with total price 7.62 G$/h over 1h matches.
        assert_eq!(
            r.flat_rate_cost(Credits::from_micro(7_620_000)).unwrap(),
            Credits::from_micro(7_620_000)
        );
    }

    #[test]
    fn builder_requires_all_sections() {
        assert!(matches!(RurBuilder::default().build(), Err(RurError::MissingField("user"))));
        assert!(matches!(
            RurBuilder::default().user("h", "cn").build(),
            Err(RurError::MissingField("job"))
        ));
        assert!(matches!(
            RurBuilder::default().user("h", "cn").job("j", "a", 0, 1).build(),
            Err(RurError::MissingField("resource"))
        ));
    }

    #[test]
    fn validation_catches_bad_records() {
        // End before start.
        let r = RurBuilder::default()
            .user("h", "cn")
            .job("j", "a", 10, 5)
            .resource("r", "cn2", None, 0)
            .build();
        assert!(matches!(r, Err(RurError::Invalid { field: "job.end_ms", .. })));

        // Duplicate item line.
        let r = RurBuilder::default()
            .user("h", "cn")
            .job("j", "a", 0, 10)
            .resource("r", "cn2", None, 0)
            .line(ChargeableItem::Cpu, UsageAmount::Time(Duration::from_ms(1)), Credits::ZERO)
            .line(ChargeableItem::Cpu, UsageAmount::Time(Duration::from_ms(2)), Credits::ZERO)
            .build();
        assert!(matches!(r, Err(RurError::Invalid { field: "lines", .. })));

        // Negative price.
        let r = RurBuilder::default()
            .user("h", "cn")
            .job("j", "a", 0, 10)
            .resource("r", "cn2", None, 0)
            .line(
                ChargeableItem::Cpu,
                UsageAmount::Time(Duration::from_ms(1)),
                Credits::from_gd(-1),
            )
            .build();
        assert!(matches!(r, Err(RurError::Invalid { field: "lines", .. })));

        // Empty certificate name.
        let r = RurBuilder::default()
            .user("h", "")
            .job("j", "a", 0, 10)
            .resource("r", "cn2", None, 0)
            .build();
        assert!(matches!(r, Err(RurError::MissingField("user.certificate_name"))));
    }

    #[test]
    fn line_lookup() {
        let r = sample_record();
        assert!(r.line(ChargeableItem::Cpu).is_some());
        assert!(r.line(ChargeableItem::Storage).is_none());
    }

    #[test]
    fn zero_usage_detection() {
        assert!(UsageAmount::Time(Duration::ZERO).is_zero());
        assert!(UsageAmount::Data(DataSize::ZERO).is_zero());
        assert!(UsageAmount::Occupancy(MbHours::ZERO).is_zero());
        assert!(!UsageAmount::Time(Duration::from_ms(1)).is_zero());
    }
}
