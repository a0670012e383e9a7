//! Paper-style result tables and serializable experiment reports.
//!
//! The experiment harness prints the same table shapes as the paper
//! (Table 1's `q1q2 / % / Meaning` rows, Table 2's `q0q1q2` rows) and
//! exports machine-readable records for `EXPERIMENTS.md`.

use qsim::Counts;

/// One row of a paper-style outcome table.
#[derive(Clone, Debug, PartialEq)]
pub struct OutcomeRow {
    /// The outcome bits rendered in the table's qubit order.
    pub bits: String,
    /// Share of shots, in percent.
    pub percent: f64,
    /// Interpretation of the outcome (e.g. "assertion error, q1 is 1").
    pub meaning: String,
}

/// A paper-style outcome table.
#[derive(Clone, Debug, PartialEq)]
pub struct OutcomeTable {
    /// Table caption.
    pub title: String,
    /// Header of the bits column (e.g. "q1q2").
    pub bits_header: String,
    /// The rows, in ascending outcome order.
    pub rows: Vec<OutcomeRow>,
}

impl OutcomeTable {
    /// Builds a table from counts.
    ///
    /// `bit_order[j]` names the clbit printed at string position `j`
    /// (leftmost first), matching how the paper orders its columns.
    /// `meaning` maps each rendered bitstring to its interpretation.
    pub fn from_counts(
        title: impl Into<String>,
        bits_header: impl Into<String>,
        counts: &Counts,
        bit_order: &[usize],
        meaning: impl Fn(&str) -> String,
    ) -> OutcomeTable {
        let total = counts.total().max(1) as f64;
        let k = bit_order.len();
        let mut rows = Vec::with_capacity(1 << k);
        for pattern in 0..(1u64 << k) {
            // `pattern` enumerates rendered strings in lexicographic
            // order: bit j of the string (from the left) set means a '1'
            // at position j.
            let bits: String = (0..k)
                .map(|j| {
                    if (pattern >> (k - 1 - j)) & 1 == 1 {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            // Accumulate all keys that render to this pattern.
            let n: u64 = counts
                .iter()
                .filter(|(key, _)| counts.bitstring_custom(*key, bit_order) == bits)
                .map(|(_, n)| n)
                .sum();
            rows.push(OutcomeRow {
                meaning: meaning(&bits),
                percent: 100.0 * n as f64 / total,
                bits,
            });
        }
        OutcomeTable {
            title: title.into(),
            bits_header: bits_header.into(),
            rows,
        }
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        out.push_str(&format!(
            "{:>8} {:>8}  {}\n",
            self.bits_header, "%", "Meaning"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:>8} {:>7.2}%  {}\n",
                row.bits, row.percent, row.meaning
            ));
        }
        out
    }
}

/// A paper-vs-measured comparison line for `EXPERIMENTS.md`.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// What is being compared (e.g. "raw error rate").
    pub metric: String,
    /// The value the paper reports.
    pub paper: f64,
    /// The value this reproduction measured.
    pub measured: f64,
}

impl Comparison {
    /// Creates a comparison line.
    pub fn new(metric: impl Into<String>, paper: f64, measured: f64) -> Self {
        Comparison {
            metric: metric.into(),
            paper,
            measured,
        }
    }

    /// Whether the measured value has the same sign of effect and the
    /// same order of magnitude — the reproduction bar for a simulated
    /// substrate (absolute hardware numbers are not recoverable).
    pub fn shape_holds(&self) -> bool {
        if self.paper == 0.0 {
            return self.measured.abs() < 1e-6;
        }
        let ratio = self.measured / self.paper;
        ratio > 0.0 && (0.1..=10.0).contains(&ratio)
    }
}

/// A named scalar measurement attached to a report (runtime telemetry
/// rather than paper comparisons: cache hit rates, shard counts,
/// wall-clock figures).
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (e.g. "program_cache_hit_rate").
    pub name: String,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// Creates a metric.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        Metric {
            name: name.into(),
            value,
        }
    }
}

/// The effective configuration of the [`AssertionSession`] that
/// produced an experiment's numbers — embedded in report JSON so repro
/// artifacts record how they were run.
///
/// Produced by [`AssertionSession::record`].
///
/// [`AssertionSession`]: crate::session::AssertionSession
/// [`AssertionSession::record`]: crate::session::AssertionSession::record
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionRecord {
    /// The backend's human-readable name.
    pub backend: String,
    /// The backend's kind ([`qsim::BackendKind::as_str`] — e.g.
    /// `"statevector"` or `"stabilizer"`), a stable machine-readable
    /// label where the name above is free-form prose.
    pub backend_kind: String,
    /// The shard/thread override *requested* on the session (`None` =
    /// backend default). Always records what the caller asked for, even
    /// when the backend ignores it — `threads_effective` below says
    /// what actually took effect.
    pub threads: Option<usize>,
    /// The shard/thread count the backend *actually honors*
    /// ([`qsim::Backend::effective_threads`]): equal to `threads` on
    /// the per-shot backends, `None` on backends without a shard
    /// concept (the exact density-matrix executor) whatever was
    /// requested.
    pub threads_effective: Option<usize>,
    /// The per-run RNG seed override *requested* on the session
    /// (`None` = backend default). Backends without sampling randomness
    /// ignore the request.
    pub seed: Option<u64>,
    /// The plan's shot budget per run ([`crate::ShotPlan::budget`]):
    /// the exact count under a fixed plan, `max_shots` under a
    /// sequential one.
    pub shots: u64,
    /// The widest program (qubit count) the session had executed when
    /// the record was taken — `0` if nothing ran yet. Together with
    /// `backend_kind` this tells a reader whether a result came from an
    /// amplitude backend near its ~30-qubit ceiling or from the
    /// stabilizer tableau at thousands of qubits.
    pub max_qubits: u64,
    /// The session's shot plan, rendered
    /// ([`crate::ShotPlan`]'s `Display` — e.g. `fixed(1024)` or
    /// `sequential(alpha=0.05, min=64, max=8192, tranche=256)`).
    pub plan: String,
    /// Capacity of the program cache the session compiled through.
    pub cache_capacity: usize,
    /// The SIMD backend the amplitude kernels dispatched to
    /// ([`qsim::simd::active_backend`] at record time) — which ISA path
    /// produced the numbers. All backends are bit-identical; this is
    /// provenance for perf artifacts, not a correctness knob.
    pub simd: String,
}

/// A complete experiment report.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentReport {
    /// Experiment id from DESIGN.md (e.g. "table1").
    pub id: String,
    /// What the experiment reproduces.
    pub description: String,
    /// Rendered outcome tables.
    pub tables: Vec<OutcomeTable>,
    /// Paper-vs-measured comparisons.
    pub comparisons: Vec<Comparison>,
    /// Runtime telemetry (cache hit/miss counters, throughput figures).
    pub metrics: Vec<Metric>,
    /// The session configuration the experiment executed under, when it
    /// ran through an `AssertionSession`.
    pub session: Option<SessionRecord>,
    /// Free-form notes (calibration caveats, etc.).
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, description: impl Into<String>) -> Self {
        ExperimentReport {
            id: id.into(),
            description: description.into(),
            tables: Vec::new(),
            comparisons: Vec::new(),
            metrics: Vec::new(),
            session: None,
            notes: Vec::new(),
        }
    }

    /// Records the session configuration that produced this report
    /// (backend name, threads, shots, cache capacity) — serialized into
    /// the JSON artifact and rendered in the text output.
    pub fn push_session(&mut self, record: SessionRecord) {
        self.session = Some(record);
    }

    /// Appends the standard session telemetry block: program-cache
    /// hits/misses/hit-rate plus prefix reuses, runs, and total shots —
    /// the counters a session (or one sweep of it) accumulated, as
    /// reported by [`crate::session::AssertionSession::telemetry`] or
    /// [`crate::session::SweepOutcome`].
    pub fn push_session_telemetry(&mut self, t: &crate::session::SessionTelemetry) {
        self.metrics
            .push(Metric::new("program_cache_hits", t.cache_hits as f64));
        self.metrics
            .push(Metric::new("program_cache_misses", t.cache_misses as f64));
        self.metrics
            .push(Metric::new("program_cache_hit_rate", t.hit_rate()));
        self.metrics
            .push(Metric::new("prefix_hits", t.prefix_hits as f64));
        self.metrics
            .push(Metric::new("session_runs", t.runs as f64));
        self.metrics
            .push(Metric::new("session_shots", t.shots as f64));
        self.metrics
            .push(Metric::new("session_tranches", t.tranches as f64));
        self.metrics
            .push(Metric::new("session_early_stops", t.early_stops as f64));
        self.metrics
            .push(Metric::new("pool_tasks", t.pool_tasks as f64));
        self.metrics
            .push(Metric::new("pool_steals", t.pool_steals as f64));
    }

    /// Serializes the report as a compact JSON object (the suite runs in
    /// environments without a serde dependency, so this is hand-rolled;
    /// field order matches declaration order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"id\":{}", json_string(&self.id)));
        out.push_str(&format!(
            ",\"description\":{}",
            json_string(&self.description)
        ));
        out.push_str(",\"tables\":[");
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"title\":{},\"bits_header\":{},\"rows\":[",
                json_string(&t.title),
                json_string(&t.bits_header)
            ));
            for (j, r) in t.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"bits\":{},\"percent\":{},\"meaning\":{}}}",
                    json_string(&r.bits),
                    json_number(r.percent),
                    json_string(&r.meaning)
                ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"comparisons\":[");
        for (i, c) in self.comparisons.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"metric\":{},\"paper\":{},\"measured\":{}}}",
                json_string(&c.metric),
                json_number(c.paper),
                json_number(c.measured)
            ));
        }
        out.push_str("],\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"value\":{}}}",
                json_string(&m.name),
                json_number(m.value)
            ));
        }
        out.push_str("],\"session\":");
        match &self.session {
            Some(s) => {
                out.push_str(&format!(
                    "{{\"backend\":{},\"backend_kind\":{},\"threads\":{},\"threads_effective\":{},\"seed\":{},\"shots\":{},\"max_qubits\":{},\"plan\":{},\"cache_capacity\":{},\"simd\":{}}}",
                    json_string(&s.backend),
                    json_string(&s.backend_kind),
                    match s.threads {
                        Some(t) => t.to_string(),
                        None => String::from("null"),
                    },
                    match s.threads_effective {
                        Some(t) => t.to_string(),
                        None => String::from("null"),
                    },
                    match s.seed {
                        Some(v) => v.to_string(),
                        None => String::from("null"),
                    },
                    s.shots,
                    s.max_qubits,
                    json_string(&s.plan),
                    s.cache_capacity,
                    json_string(&s.simd)
                ));
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(n));
        }
        out.push_str("]}");
        out
    }

    /// Renders the report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== {} — {}\n", self.id, self.description));
        for t in &self.tables {
            out.push('\n');
            out.push_str(&t.render());
        }
        if !self.comparisons.is_empty() {
            out.push_str("\npaper vs measured:\n");
            for c in &self.comparisons {
                out.push_str(&format!(
                    "  {:<38} paper {:>8.3}  measured {:>8.3}  [{}]\n",
                    c.metric,
                    c.paper,
                    c.measured,
                    if c.shape_holds() {
                        "shape ok"
                    } else {
                        "DIVERGES"
                    }
                ));
            }
        }
        if !self.metrics.is_empty() {
            out.push_str("\nmetrics:\n");
            for m in &self.metrics {
                out.push_str(&format!("  {:<38} {:.6}\n", m.name, m.value));
            }
        }
        if let Some(s) = &self.session {
            out.push_str(&format!(
                "\nsession: backend \"{}\" ({}), max qubits {}, plan {}, threads requested {} \
                 (effective {}), seed requested {}, cache capacity {}, simd \"{}\"\n",
                s.backend,
                s.backend_kind,
                s.max_qubits,
                s.plan,
                match s.threads {
                    Some(t) => t.to_string(),
                    None => String::from("backend default"),
                },
                match s.threads_effective {
                    Some(t) => t.to_string(),
                    None => String::from("backend default"),
                },
                match s.seed {
                    Some(v) => v.to_string(),
                    None => String::from("backend default"),
                },
                s.cache_capacity,
                s.simd
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// JSON-escapes a string (quotes, backslashes, control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a float as a JSON number (JSON has no NaN/Inf; those become
/// null).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        String::from("null")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_counts() -> Counts {
        // bit 0 = q1 data, bit 1 = q2 ancilla.
        Counts::from_pairs(2, [(0b00, 938), (0b10, 27), (0b01, 24), (0b11, 11)])
    }

    #[test]
    fn table_rows_cover_all_patterns_in_order() {
        let t = OutcomeTable::from_counts(
            "Table 1",
            "q1q2",
            &table1_counts(),
            &[0, 1], // q1 printed first, ancilla q2 second
            |bits| format!("outcome {bits}"),
        );
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.rows[0].bits, "00");
        assert_eq!(t.rows[3].bits, "11");
        // 0b00 key renders "00": 93.8%.
        assert!((t.rows[0].percent - 93.8).abs() < 1e-9);
        // key 0b10 (ancilla=1, q1=0) renders "01" in q1q2 order: 2.7%.
        assert!((t.rows[1].percent - 2.7).abs() < 1e-9);
    }

    #[test]
    fn percentages_sum_to_hundred() {
        let t = OutcomeTable::from_counts("t", "b", &table1_counts(), &[0, 1], |_| String::new());
        let sum: f64 = t.rows.iter().map(|r| r.percent).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn render_is_aligned_and_complete() {
        let t = OutcomeTable::from_counts("Table X", "q1q2", &table1_counts(), &[0, 1], |b| {
            format!("m{b}")
        });
        let s = t.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("93.80%"));
        assert!(s.contains("m00"));
    }

    #[test]
    fn comparison_shape_check() {
        assert!(Comparison::new("x", 0.285, 0.31).shape_holds());
        assert!(Comparison::new("x", 0.285, 0.04).shape_holds()); // same order-ish
        assert!(!Comparison::new("x", 0.285, -0.2).shape_holds()); // wrong sign
        assert!(!Comparison::new("x", 0.285, 9.0).shape_holds()); // 30x off
        assert!(Comparison::new("zero", 0.0, 0.0).shape_holds());
    }

    #[test]
    fn report_renders_sections() {
        let mut r = ExperimentReport::new("table1", "classical assertion");
        r.comparisons
            .push(Comparison::new("raw error", 0.035, 0.031));
        r.notes.push("calibration is era-ballpark".to_string());
        let s = r.render();
        assert!(s.contains("=== table1"));
        assert!(s.contains("shape ok"));
        assert!(s.contains("note: calibration"));
    }

    #[test]
    fn reports_serialize_to_json() {
        let mut r = ExperimentReport::new("fig6", "quirk classical");
        r.comparisons
            .push(Comparison::new("err \"rate\"", 0.5, 0.25));
        r.notes.push("line1\nline2".to_string());
        let json = r.to_json();
        assert!(json.contains("\"id\":\"fig6\""));
        assert!(json.contains("\"metric\":\"err \\\"rate\\\"\""));
        assert!(json.contains("\"line1\\nline2\""));
        assert!(json.contains("\"paper\":0.5"));
        assert!(json.contains("\"metrics\":[]"));
    }

    #[test]
    fn session_record_serializes_and_renders() {
        let mut r = ExperimentReport::new("table1", "classical assertion");
        assert!(r.to_json().contains("\"session\":null"));
        r.push_session(SessionRecord {
            backend: "density matrix (exact noisy)".to_string(),
            backend_kind: "density-matrix".to_string(),
            threads: Some(4),
            threads_effective: None,
            seed: None,
            shots: 8192,
            max_qubits: 3,
            plan: "fixed(8192)".to_string(),
            cache_capacity: 256,
            simd: "avx2".to_string(),
        });
        let json = r.to_json();
        // The requested override is recorded even though the exact
        // backend ignores it; the effective field says it didn't take.
        assert!(json.contains(
            "\"session\":{\"backend\":\"density matrix (exact noisy)\",\
             \"backend_kind\":\"density-matrix\",\"threads\":4,\
             \"threads_effective\":null,\
             \"seed\":null,\"shots\":8192,\"max_qubits\":3,\"plan\":\"fixed(8192)\",\
             \"cache_capacity\":256,\"simd\":\"avx2\"}"
        ));
        let text = r.render();
        assert!(text.contains("session: backend \"density matrix (exact noisy)\" (density-matrix)"));
        assert!(text.contains("max qubits 3"));
        assert!(text.contains("plan fixed(8192)"));
        assert!(text.contains("threads requested 4 (effective backend default)"));
        assert!(text.contains("seed requested backend default"));
        assert!(text.contains("simd \"avx2\""));

        let mut threaded = ExperimentReport::new("x", "y");
        threaded.push_session(SessionRecord {
            backend: "trajectory (noisy)".to_string(),
            backend_kind: "trajectory".to_string(),
            threads: Some(4),
            threads_effective: Some(4),
            seed: Some(17),
            shots: 100,
            max_qubits: 1024,
            plan: "sequential(alpha=0.05, min=64, max=100, tranche=32)".to_string(),
            cache_capacity: 8,
            simd: "scalar".to_string(),
        });
        assert!(threaded.to_json().contains("\"threads\":4"));
        assert!(threaded.to_json().contains("\"seed\":17"));
        assert!(threaded.to_json().contains("\"max_qubits\":1024"));
        assert!(threaded
            .to_json()
            .contains("\"backend_kind\":\"trajectory\""));
        assert!(threaded
            .to_json()
            .contains("\"plan\":\"sequential(alpha=0.05, min=64, max=100, tranche=32)\""));
    }

    #[test]
    fn session_telemetry_exports_the_standard_metrics() {
        let mut r = ExperimentReport::new("sweep", "telemetry");
        r.push_session_telemetry(&crate::session::SessionTelemetry {
            runs: 5,
            shots: 500,
            tranches: 9,
            early_stops: 2,
            cache_hits: 3,
            cache_misses: 1,
            prefix_hits: 2,
            pool_tasks: 20,
            pool_steals: 3,
            simd_backend: "scalar",
        });
        let json = r.to_json();
        assert!(json.contains("\"name\":\"program_cache_hit_rate\",\"value\":0.75"));
        assert!(json.contains("\"name\":\"prefix_hits\",\"value\":2"));
        assert!(json.contains("\"name\":\"session_runs\",\"value\":5"));
        assert!(json.contains("\"name\":\"session_shots\",\"value\":500"));
        assert!(json.contains("\"name\":\"session_tranches\",\"value\":9"));
        assert!(json.contains("\"name\":\"session_early_stops\",\"value\":2"));
        assert!(json.contains("\"name\":\"pool_tasks\",\"value\":20"));
        assert!(json.contains("\"name\":\"pool_steals\",\"value\":3"));
        let text = r.render();
        assert!(text.contains("metrics:") && text.contains("program_cache_hit_rate"));
    }
}
