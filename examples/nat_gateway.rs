//! NAT gateway exploration: apply the methodology to the extension case
//! study and inspect how the port-pool size (the gateway's
//! application-specific network parameter) moves the optimal DDT choice.
//!
//! ```sh
//! cargo run --example nat_gateway --release
//! ```

use ddtr::apps::{AppKind, AppParams};
use ddtr::core::{Methodology, MethodologyConfig, Simulator, TraceSource};
use ddtr::ddt::DdtKind;
use ddtr::mem::MemoryConfig;
use ddtr::trace::NetworkPreset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Quick three-step exploration of the gateway.
    let cfg = MethodologyConfig::quick(AppKind::Nat);
    let outcome = Methodology::new(cfg).run()?;
    println!("== NAT gateway, three-step exploration ==");
    println!(
        "step 1 pruned {:.0}% of the space; global Pareto set:",
        outcome.step1.pruned_fraction() * 100.0
    );
    for p in &outcome.pareto.global_front {
        println!("  {:20} {}", p.combo, p.report);
    }

    // 2. The gateway's own network parameter: sweep the pool size and
    //    watch the binding-table pressure change.
    println!("\n== port-pool sweep (AR+AR, BWY-I) ==");
    let sim = Simulator::new(MemoryConfig::embedded_default());
    let trace = NetworkPreset::DartmouthBerry.generate(300);
    for ports in [16, 32, 64, 128] {
        let params = AppParams {
            nat_ports: ports,
            ..AppParams::default()
        };
        let (log, _) = sim.run(
            AppKind::Nat,
            [DdtKind::Array, DdtKind::Array],
            &params,
            TraceSource::Materialized(&trace),
        );
        println!("pool {ports:>4} ports: {}", log.report);
    }
    println!("\nA bigger pool admits more concurrent bindings: more footprint,");
    println!("more binding-table search traffic — the app-specific trade-off the");
    println!("methodology captures per configuration.");
    Ok(())
}
