//! Multi-branch GridBank with inter-branch settlement — §6's future
//! work, implemented.
//!
//! Three Virtual Organizations each run their own GridBank branch.
//! Consumers pay providers across VO boundaries: the payee is credited
//! immediately while the debit parks in the drawer branch's clearing
//! account; a periodic settlement round nets each branch pair and moves
//! only the difference.
//!
//! Run with: `cargo run --example multi_branch`

use std::sync::Arc;

use gridbank_suite::bank::clock::Clock;
use gridbank_suite::bank::federation::{direct_mesh, settle_all};
use gridbank_suite::bank::server::{GridBank, GridBankConfig};
use gridbank_suite::rur::Credits;

const ADMIN: &str = "/O=GridBank/OU=Admin/CN=operator";

fn main() {
    println!("=== Multi-branch GridBank (§6) ===\n");

    let vos = ["physics", "bioinformatics", "climate"];
    let clock = Clock::new();
    let mut banks = Vec::new();
    let mut accounts = Vec::new();
    for (i, vo) in vos.iter().enumerate() {
        let branch = i.saturating_add(1) as u16;
        let config = GridBankConfig { branch, signer_height: 4, ..GridBankConfig::default() };
        let bank = Arc::new(GridBank::new(config, clock.clone()));
        println!("[vo  ] branch {branch:04} serves VO `{vo}`");
        // Two members per VO: a consumer and a provider.
        let consumer = bank.accounts.create_account(&format!("/O={vo}/CN=consumer"), None).unwrap();
        let provider = bank.accounts.create_account(&format!("/O={vo}/CN=provider"), None).unwrap();
        bank.admin.deposit(ADMIN, &consumer, Credits::from_gd(100)).unwrap();
        accounts.push((consumer, provider));
        banks.push(bank);
    }
    // One process, so the branches federate over direct links; live
    // servers do the same over retry links (`gridbank settle`).
    let routers = direct_mesh(&banks);
    println!();

    // Cross-VO trade: each VO's consumer uses the next VO's provider, and
    // physics additionally buys a lot from climate.
    let flows = [
        (accounts[0].0, accounts[1].1, 20i64), // physics -> bio
        (accounts[1].0, accounts[2].1, 15),    // bio -> climate
        (accounts[2].0, accounts[0].1, 10),    // climate -> physics
        (accounts[0].0, accounts[2].1, 25),    // physics -> climate
        (accounts[2].0, accounts[0].1, 5),     // climate -> physics again
    ];
    for (from, to, gd) in flows {
        routers[usize::from(from.branch).saturating_sub(1)]
            .cross_branch_transfer(&from, &to, Credits::from_gd(gd), Vec::new(), None)
            .unwrap();
        println!("[pay ] {from} -> {to}: G${gd} (payee credited immediately)");
    }

    println!("\nclearing balances before settlement:");
    for router in &routers {
        for b in router.peer_branches() {
            let parked = router.clearing_balance(b);
            if parked.is_positive() {
                println!("  branch {:04} owes branch {b:04}: {parked}", router.local_branch());
            }
        }
    }

    // Every branch runs a round; the lower branch of a pair proposes.
    let report = settle_all(&routers).unwrap();
    println!("\nsettlement round:");
    for p in &report.pairs {
        println!(
            "  {}↔{}: gross {} + {} → net {}",
            p.branch_a, p.branch_b, p.gross_a_to_b, p.gross_b_to_a, p.net
        );
    }
    println!(
        "\ntotal gross flow : {}\ntotal net settled: {}  (netting saved {})",
        report.total_gross(),
        report.total_net(),
        report.total_gross().checked_sub(report.total_net()).unwrap()
    );

    println!("\nfinal balances:");
    for ((bank, vo), (consumer, provider)) in banks.iter().zip(vos).zip(&accounts) {
        let c = bank.accounts.account_details(consumer).unwrap();
        let p = bank.accounts.account_details(provider).unwrap();
        println!("  {vo:<16} consumer {}   provider {}", c.available, p.available);
    }
    let total: Credits = banks.iter().map(|b| b.total_funds()).sum();
    println!("\nfederation conservation check: total funds = {total}");
}
