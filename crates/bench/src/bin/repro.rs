//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro                # run every experiment
//! repro table1 fig7    # run selected experiments
//! repro --list         # list experiment ids
//! repro --json out.json  # additionally export reports as JSON
//! repro --quick        # CI smoke: fast experiment subset, exit 3 on
//!                      # any diverging paper-vs-measured shape
//! ```

use qassert_bench::{registry, run_by_id};

/// The fast, simulator-only subset `--quick` runs (CI smoke — seconds,
/// not minutes, but still end-to-end through circuits, compiler, cache,
/// and backends).
const QUICK_IDS: [&str; 3] = ["fig6", "fig7", "theory"];

/// `--quick` also smokes the stabilizer tableau backend at the scale
/// it exists for: a 1,024-qubit assertion-instrumented GHZ parity run
/// through the full `AssertionSession` machinery must hold its verdict
/// and stop early, and at small n the tableau's counts must agree with
/// the exact distribution. The end-to-end CI twin of the
/// `stabilizer_equivalence` suite and the `perf` bench's `stab` row
/// (exit 3 on divergence).
fn stabilizer_smoke() -> Result<String, String> {
    use qassert::{AssertingCircuit, AssertionSession, AssertionVerdict, Parity, ShotPlan};
    use qsim::Backend;

    // The scale leg: GHZ(1024) with an even-parity assertion between
    // the end qubits (1,025 qubits instrumented).
    let mut big = AssertingCircuit::new(qcircuit::library::ghz(1024));
    big.assert_entangled([0, 1023], Parity::Even)
        .expect("valid assertion");
    let session = AssertionSession::new(qsim::StabilizerBackend::ideal())
        .private_cache(4)
        .shot_plan(ShotPlan::Sequential {
            alpha: 0.05,
            min_shots: 64,
            max_shots: 2048,
            tranche: 64,
        })
        .seed(7)
        .threads(2);
    let outcome = session.run(&big).map_err(|e| e.to_string())?;
    if outcome.verdicts[0].verdict != AssertionVerdict::Holds {
        return Err(format!(
            "1024-qubit ghz parity verdict {:?}, expected Holds",
            outcome.verdicts[0].verdict
        ));
    }
    if outcome.plan.shots_used >= 2048 {
        return Err("1024-qubit clear-cut run failed to stop early".to_string());
    }
    let record = session.record();

    // The small-n cross-check: stabilizer counts vs the exact
    // distribution on a mid-measure Clifford workload.
    let mut small = qcircuit::QuantumCircuit::new(5, 5);
    small.h(0).expect("valid");
    for q in 0..4 {
        small.cx(q, q + 1).expect("valid");
    }
    small.measure(0, 0).expect("valid");
    small.s(1).expect("valid");
    small.sdg(1).expect("valid");
    small.measure_all();
    let stab = qsim::StabilizerBackend::ideal().with_seed(5);
    let counts = stab.run(&small, 8192).map_err(|e| e.to_string())?.counts;
    let exact = qsim::DensityMatrixBackend::ideal()
        .exact_distribution(&small)
        .map_err(|e| e.to_string())?;
    let tvd: f64 = (0..32u64)
        .map(|k| (counts.probability(k) - exact.probability(k)).abs() / 2.0)
        .sum();
    if tvd > 0.02 {
        return Err(format!(
            "stabilizer counts diverge from exact distribution: tvd {tvd:.4}"
        ));
    }
    Ok(format!(
        "stabilizer smoke: {} backend at {} qubits, verdict Holds after {} of 2048 \
         shots, small-n tvd {tvd:.4}",
        record.backend_kind, record.max_qubits, outcome.plan.shots_used
    ))
}

/// `--quick` also smokes hybrid Clifford routing on the workload it
/// exists for: an assertion-instrumented Clifford-dominated circuit
/// with a non-Clifford island run through the full `AssertionSession`
/// machinery must hold its verdict, and at small n a routed program
/// (profitable plan asserted) must agree with the exact distribution.
/// The end-to-end CI twin of the `hybrid_equivalence` suite and the
/// `perf` bench's `hybrid` row (exit 3 on divergence).
fn hybrid_smoke() -> Result<String, String> {
    use qassert::{AssertingCircuit, AssertionSession, AssertionVerdict, Parity, ShotPlan};
    use qsim::Backend;

    // The session leg: GHZ(12) with Clifford padding and a T·T† island
    // (identity, so the parity assertion must still hold), instrumented
    // and run end to end on the hybrid backend.
    let mut base = qcircuit::library::ghz(12);
    for q in 0..12 {
        base.s(q).expect("valid");
        base.sdg(q).expect("valid");
    }
    base.t(0).expect("valid");
    base.tdg(0).expect("valid");
    let mut asserted = AssertingCircuit::new(base);
    asserted
        .assert_entangled([0, 11], Parity::Even)
        .expect("valid assertion");
    let session = AssertionSession::new(qsim::HybridBackend::ideal())
        .shot_plan(ShotPlan::Fixed(512))
        .seed(7)
        .threads(2);
    let outcome = session.run(&asserted).map_err(|e| e.to_string())?;
    if outcome.verdicts[0].verdict != AssertionVerdict::Holds {
        return Err(format!(
            "ghz parity verdict through the hybrid backend: {:?}, expected Holds",
            outcome.verdicts[0].verdict
        ));
    }
    let record = session.record();

    // The small-n cross-check: a circuit the cost model must actually
    // route (profitable plan asserted, so this cannot silently test the
    // statevector fallback), sampled against the exact distribution.
    let n = 10;
    let mut small = qcircuit::QuantumCircuit::new(n, 3);
    small.h(0).expect("valid");
    for q in 0..n - 1 {
        small.cx(q, q + 1).expect("valid");
    }
    for q in 0..n {
        small.s(q).expect("valid");
        small.sdg(q).expect("valid");
    }
    small.t(0).expect("valid");
    small.h(0).expect("valid");
    for q in 0..3 {
        small.measure(q, q).expect("valid");
    }
    let hybrid = qsim::HybridBackend::ideal();
    let program = hybrid.compile(&small).map_err(|e| e.to_string())?;
    let plan = program
        .hybrid()
        .ok_or("no clifford prefix recorded on the routed workload")?;
    if !plan.profitable() {
        return Err(format!(
            "{}-op clifford prefix judged unprofitable at n={n}",
            plan.prefix().ops().len()
        ));
    }
    let counts = hybrid
        .run_compiled_seeded(&program, 8192, Some(5), Some(2))
        .map_err(|e| e.to_string())?
        .counts;
    let exact = qsim::DensityMatrixBackend::ideal()
        .exact_distribution(&small)
        .map_err(|e| e.to_string())?;
    let tvd: f64 = (0..8u64)
        .map(|k| (counts.probability(k) - exact.probability(k)).abs() / 2.0)
        .sum();
    if tvd > 0.03 {
        return Err(format!(
            "routed counts diverge from exact distribution: tvd {tvd:.4}"
        ));
    }
    Ok(format!(
        "hybrid smoke: {} backend, verdict Holds through the session, routed \
         small-n plan cuts at instruction {} ({}-op tableau prefix), tvd {tvd:.4}",
        record.backend_kind,
        plan.boundary(),
        plan.prefix().ops().len()
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--list") {
        for (id, description, _) in registry() {
            println!("{id:<10} {description}");
        }
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");

    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());

    let mut selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| json_path.as_deref() != Some(a.as_str()))
        .cloned()
        .collect();
    if quick && selected.is_empty() {
        selected = QUICK_IDS.iter().map(|s| s.to_string()).collect();
    }
    if quick {
        // The tableau at scale and hybrid routing, each end to end
        // through `AssertionSession`, which no perf row drives.
        let smokes = [
            ("stabilizer", stabilizer_smoke as fn() -> _),
            ("hybrid", hybrid_smoke),
        ];
        for (name, smoke) in smokes {
            match smoke() {
                Ok(summary) => println!("{summary}"),
                Err(why) => {
                    eprintln!("{name} smoke FAILED: {why}");
                    std::process::exit(3);
                }
            }
        }
    }

    let mut reports = Vec::new();
    if selected.is_empty() {
        for (id, _, runner) in registry() {
            eprintln!("running {id} ...");
            reports.push(runner());
        }
    } else {
        for id in &selected {
            match run_by_id(id) {
                Some(report) => reports.push(report),
                None => {
                    eprintln!("unknown experiment '{id}'; use --list to see ids");
                    std::process::exit(2);
                }
            }
        }
    }

    for report in &reports {
        println!("{}", report.render());
    }

    let diverging: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            r.comparisons
                .iter()
                .filter(|c| !c.shape_holds())
                .map(move |c| format!("{}: {}", r.id, c.metric))
        })
        .collect();
    // Export before any gate exit so a diverging --quick run still
    // leaves the JSON evidence behind.
    if let Some(path) = json_path {
        let body: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        let json = format!("[{}]", body.join(","));
        std::fs::write(&path, json).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }

    if diverging.is_empty() {
        println!("all paper-vs-measured shapes hold.");
    } else {
        println!("DIVERGING metrics:");
        for d in &diverging {
            println!("  {d}");
        }
        if quick {
            // --quick is the CI smoke gate: a diverging shape fails it.
            std::process::exit(3);
        }
    }
}
