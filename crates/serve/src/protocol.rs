//! The wire protocol: job specifications, typed error bodies, and the
//! NDJSON result records.
//!
//! See the crate-level docs for the full protocol reference. This
//! module is pure data transformation — JSON in, [`JobSpec`] out;
//! [`qassert::AssertionOutcome`] in, NDJSON records out — so both the
//! server and the parity tests (which must render a direct
//! `AssertionSession` run identically) share one implementation.

use crate::json::{self, Value};
use qassert::{
    AssertError, AssertingCircuit, AssertionOutcome, AssertionRecord, FilterPolicy, Parity,
    SessionTelemetry, ShotPlan, SuperpositionBasis,
};
use qcircuit::qasm::{self, QasmError};
use qsim::BackendKind;

/// A structured service error: HTTP status plus a machine-readable
/// JSON body (`error` code, `message`, and optional extra fields such
/// as the QASM source span or the shot ceiling).
#[derive(Debug)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable error code.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Extra structured fields merged into the body object.
    pub details: Vec<(&'static str, Value)>,
}

impl ApiError {
    /// A 400 with just a code and message.
    pub fn bad_request(code: &'static str, message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            code,
            message: message.into(),
            details: Vec::new(),
        }
    }

    /// The JSON body for this error.
    pub fn body(&self) -> String {
        let mut members = vec![
            ("error", Value::from(self.code)),
            ("message", Value::from(self.message.clone())),
        ];
        members.extend(self.details.iter().cloned());
        Value::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
        .render()
    }
}

impl From<QasmError> for ApiError {
    /// QASM parse failures become structured 400s carrying the
    /// offending source span, so clients can point at the exact token.
    fn from(e: QasmError) -> Self {
        let mut err = ApiError::bad_request("invalid_qasm", e.to_string());
        if let Some(span) = e.span() {
            err.details.push(("line", Value::from(span.line)));
            err.details.push(("col", Value::from(span.col)));
        }
        err
    }
}

impl From<AssertError> for ApiError {
    fn from(e: AssertError) -> Self {
        ApiError::bad_request("invalid_assertion", e.to_string())
    }
}

/// One assertion to instrument, in application order.
#[derive(Clone, Debug, PartialEq)]
pub enum AssertionSpec {
    /// `assert_classical(qubits, expected)`.
    Classical {
        /// Data qubits to check.
        qubits: Vec<usize>,
        /// Expected classical value per qubit.
        expected: Vec<bool>,
    },
    /// `assert_entangled(qubits, parity)`.
    Entangled {
        /// The entangled block.
        qubits: Vec<usize>,
        /// Expected GHZ parity class.
        parity: Parity,
    },
    /// `assert_superposition(qubit, basis)`.
    Superposition {
        /// The qubit expected in equal superposition.
        qubit: usize,
        /// `|+⟩` or `|−⟩`.
        basis: SuperpositionBasis,
    },
}

/// A fully parsed job submission.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// OpenQASM 2.0 source of the base (uninstrumented) circuit.
    pub qasm: String,
    /// Which backend executes the job.
    pub backend: BackendKind,
    /// Shot plan (fixed or sequential).
    pub plan: ShotPlan,
    /// Per-job RNG seed; jobs with the same spec and seed are
    /// bit-identical.
    pub seed: Option<u64>,
    /// Shard/thread override for per-shot execution.
    pub threads: Option<usize>,
    /// What analysis does when filtering removes every shot.
    pub filter: FilterPolicy,
    /// Uniform noise `(p1, p2, readout)` bound into the backend.
    pub noise: Option<(f64, f64, f64)>,
    /// Assertions to instrument, in order.
    pub assertions: Vec<AssertionSpec>,
    /// Whether to measure every data qubit at the end.
    pub measure_data: bool,
}

/// Default shots for jobs that specify no plan — deliberately modest
/// so an empty spec cannot occupy a worker for long.
pub const DEFAULT_JOB_SHOTS: u64 = 1024;

/// The hard ceiling on any job's shot budget (fixed shots or a
/// sequential plan's `max_shots`), checked at parse time, before
/// admission: a single huge job would otherwise monopolize a turn.
pub const MAX_JOB_SHOTS: u64 = 1 << 22;

/// The ceiling on a job's `threads` (its shard count). Each shard costs
/// a pool task, a result slot and a histogram, and shards past the
/// host's cores buy no speed, so a larger request is rejected at parse
/// time, before admission.
pub const MAX_JOB_THREADS: usize = 64;

/// Integer field `{prefix}{name}` read exactly: a non-negative integer
/// literal that fits `u64`, or a 400 that names the range. A fraction or
/// exponent is rejected even when it rounds to a whole `f64`, so a job
/// never runs an integer other than the one it sent.
fn exact_u64(value: &Value, prefix: &str, name: &str) -> Result<u64, ApiError> {
    value.as_u64().ok_or_else(|| {
        ApiError::bad_request(
            "invalid_job",
            format!("'{prefix}{name}' must be an integer from 0 to {}", u64::MAX),
        )
    })
}

/// Optional field `key` of `parent`, reported as `name`: absent or
/// `null` is `None` (the caller's default), and a value `read` rejects
/// is a 400 naming the field and the type it expects, so a value of the
/// wrong type never runs as the default.
fn optional<'v, T>(
    parent: &'v Value,
    key: &str,
    name: &str,
    expected: &str,
    read: impl FnOnce(&'v Value) -> Option<T>,
) -> Result<Option<T>, ApiError> {
    match parent.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => read(v).map(Some).ok_or_else(|| {
            ApiError::bad_request("invalid_job", format!("'{name}' must be {expected}"))
        }),
    }
}

fn qubit_list(value: &Value, field: &'static str) -> Result<Vec<usize>, ApiError> {
    let items = value.as_arr().ok_or_else(|| {
        ApiError::bad_request("invalid_job", format!("'{field}' must be an array"))
    })?;
    items
        .iter()
        .map(|v| {
            v.as_u64().map(|n| n as usize).ok_or_else(|| {
                ApiError::bad_request(
                    "invalid_job",
                    format!("'{field}' entries must be non-negative integers"),
                )
            })
        })
        .collect()
}

fn parse_assertion(value: &Value, index: usize) -> Result<AssertionSpec, ApiError> {
    let kind = value.get("kind").and_then(Value::as_str).ok_or_else(|| {
        ApiError::bad_request(
            "invalid_job",
            format!("assertion {index} has no 'kind' string"),
        )
    })?;
    match kind {
        "classical" => {
            let qubits = qubit_list(
                value.get("qubits").unwrap_or(&Value::Null),
                "assertions[].qubits",
            )?;
            let expected = value
                .get("expected")
                .and_then(Value::as_arr)
                .ok_or_else(|| {
                    ApiError::bad_request(
                        "invalid_job",
                        format!("classical assertion {index} needs an 'expected' bool array"),
                    )
                })?
                .iter()
                .map(|v| {
                    v.as_bool().ok_or_else(|| {
                        ApiError::bad_request(
                            "invalid_job",
                            format!("assertion {index}: 'expected' entries must be booleans"),
                        )
                    })
                })
                .collect::<Result<Vec<bool>, ApiError>>()?;
            Ok(AssertionSpec::Classical { qubits, expected })
        }
        "entangled" => {
            let qubits = qubit_list(
                value.get("qubits").unwrap_or(&Value::Null),
                "assertions[].qubits",
            )?;
            let name = format!("assertions[{index}].parity");
            let parity = match optional(value, "parity", &name, "a string", Value::as_str)? {
                None | Some("even") => Parity::Even,
                Some("odd") => Parity::Odd,
                Some(other) => {
                    return Err(ApiError::bad_request(
                        "invalid_job",
                        format!("assertion {index}: unknown parity '{other}'"),
                    ))
                }
            };
            Ok(AssertionSpec::Entangled { qubits, parity })
        }
        "superposition" => {
            let qubit = value.get("qubit").and_then(Value::as_u64).ok_or_else(|| {
                ApiError::bad_request(
                    "invalid_job",
                    format!("superposition assertion {index} needs a 'qubit' integer"),
                )
            })? as usize;
            let name = format!("assertions[{index}].basis");
            let basis = match optional(value, "basis", &name, "a string", Value::as_str)? {
                None | Some("plus") => SuperpositionBasis::Plus,
                Some("minus") => SuperpositionBasis::Minus,
                Some(other) => {
                    return Err(ApiError::bad_request(
                        "invalid_job",
                        format!("assertion {index}: unknown basis '{other}'"),
                    ))
                }
            };
            Ok(AssertionSpec::Superposition { qubit, basis })
        }
        other => Err(ApiError::bad_request(
            "invalid_job",
            format!("assertion {index}: unknown kind '{other}'"),
        )),
    }
}

fn parse_plan(value: Option<&Value>) -> Result<ShotPlan, ApiError> {
    let plan = match value {
        None => ShotPlan::Fixed(DEFAULT_JOB_SHOTS),
        Some(v) => {
            if let Some(shots) = v.get("fixed") {
                ShotPlan::Fixed(exact_u64(shots, "plan.", "fixed")?)
            } else if let Some(seq) = v.get("sequential") {
                let field = |name: &str, default: u64| match seq.get(name) {
                    None => Ok(default),
                    Some(n) => exact_u64(n, "plan.sequential.", name),
                };
                ShotPlan::Sequential {
                    alpha: optional(
                        seq,
                        "alpha",
                        "plan.sequential.alpha",
                        "a number",
                        Value::as_num,
                    )?
                    .unwrap_or(0.05),
                    min_shots: field("min_shots", 64)?,
                    max_shots: field("max_shots", DEFAULT_JOB_SHOTS)?,
                    tranche: field("tranche", 128)?,
                }
            } else {
                return Err(ApiError::bad_request(
                    "invalid_job",
                    "'plan' must be {\"fixed\": n} or {\"sequential\": {...}}",
                ));
            }
        }
    };
    if let Err(why) = plan.validate() {
        return Err(ApiError::bad_request(
            "invalid_plan",
            format!("invalid shot plan: {why}"),
        ));
    }
    if plan.budget() > MAX_JOB_SHOTS {
        return Err(ApiError {
            status: 400,
            code: "budget_too_large",
            message: format!(
                "shot budget {} exceeds the per-job ceiling {MAX_JOB_SHOTS}",
                plan.budget()
            ),
            details: vec![("max_shots", Value::from(MAX_JOB_SHOTS))],
        });
    }
    Ok(plan)
}

impl JobSpec {
    /// Parses a job submission body.
    ///
    /// # Errors
    ///
    /// Returns an [`ApiError`] (status 400) naming the first invalid
    /// field; QASM itself is *not* parsed here — that happens in
    /// [`JobSpec::build_circuit`] so its span-carrying errors stay
    /// separate from spec-shape errors.
    pub fn from_json(body: &str) -> Result<JobSpec, ApiError> {
        let root = json::parse(body).map_err(|why| {
            ApiError::bad_request("invalid_json", format!("body is not valid JSON: {why}"))
        })?;
        if root.as_obj().is_none() {
            return Err(ApiError::bad_request(
                "invalid_json",
                "body must be a JSON object",
            ));
        }
        let qasm = root
            .get("qasm")
            .and_then(Value::as_str)
            .ok_or_else(|| ApiError::bad_request("invalid_job", "'qasm' string is required"))?
            .to_string();
        let backend = match optional(&root, "backend", "backend", "a string", Value::as_str)? {
            None | Some("statevector") => BackendKind::Statevector,
            Some("trajectory") => BackendKind::Trajectory,
            Some("density-matrix") => BackendKind::DensityMatrix,
            Some("stabilizer") => BackendKind::Stabilizer,
            Some("hybrid") => BackendKind::Hybrid,
            Some(other) => {
                return Err(ApiError::bad_request(
                    "unknown_backend",
                    format!(
                        "unknown backend '{other}' (expected statevector, trajectory, \
                         density-matrix, stabilizer, or hybrid)"
                    ),
                ))
            }
        };
        let plan = parse_plan(root.get("plan"))?;
        let seed = match root.get("seed") {
            None | Some(Value::Null) => None,
            Some(v) => Some(exact_u64(v, "", "seed")?),
        };
        let threads = match root.get("threads") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .and_then(|t| usize::try_from(t).ok())
                    .filter(|t| (1..=MAX_JOB_THREADS).contains(t))
                    .ok_or_else(|| {
                        ApiError::bad_request(
                            "invalid_job",
                            format!("'threads' must be an integer from 1 to {MAX_JOB_THREADS}"),
                        )
                    })?,
            ),
        };
        let filter = match optional(&root, "filter", "filter", "a string", Value::as_str)? {
            None | Some("require-kept") => FilterPolicy::RequireKept,
            Some("allow-empty") => FilterPolicy::AllowEmpty,
            Some(other) => {
                return Err(ApiError::bad_request(
                    "invalid_job",
                    format!("unknown filter policy '{other}'"),
                ))
            }
        };
        let noise = match root.get("noise") {
            None | Some(Value::Null) => None,
            Some(v) => {
                let field = |name: &str| {
                    v.get(name).and_then(Value::as_num).ok_or_else(|| {
                        ApiError::bad_request(
                            "invalid_job",
                            format!("'noise.{name}' must be a number"),
                        )
                    })
                };
                Some((field("p1")?, field("p2")?, field("readout")?))
            }
        };
        let assertions = match root.get("assertions") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| {
                    ApiError::bad_request("invalid_job", "'assertions' must be an array")
                })?
                .iter()
                .enumerate()
                .map(|(i, a)| parse_assertion(a, i))
                .collect::<Result<Vec<AssertionSpec>, ApiError>>()?,
        };
        let measure_data = optional(
            &root,
            "measure_data",
            "measure_data",
            "a boolean",
            Value::as_bool,
        )?
        .unwrap_or(true);
        Ok(JobSpec {
            qasm,
            backend,
            plan,
            seed,
            threads,
            filter,
            noise,
            assertions,
            measure_data,
        })
    }

    /// Parses the QASM source and applies the assertion specs in
    /// order, producing the instrumented circuit the session runs.
    ///
    /// Deterministic: the same spec always yields a structurally
    /// identical circuit, which (with the same seed and plan) makes
    /// wire submissions bit-identical to direct sessions — the
    /// end-to-end contract the parity tests pin.
    ///
    /// # Errors
    ///
    /// `invalid_qasm` (with span) on parse failures, `invalid_assertion`
    /// on instrumentation failures (bad qubit targets etc.).
    pub fn build_circuit(&self) -> Result<AssertingCircuit, ApiError> {
        let base = qasm::from_qasm(&self.qasm)?;
        let mut instrumented = AssertingCircuit::new(base);
        for spec in &self.assertions {
            match spec {
                AssertionSpec::Classical { qubits, expected } => {
                    instrumented
                        .assert_classical(qubits.iter().copied(), expected.iter().copied())?;
                }
                AssertionSpec::Entangled { qubits, parity } => {
                    instrumented.assert_entangled(qubits.iter().copied(), *parity)?;
                }
                AssertionSpec::Superposition { qubit, basis } => {
                    instrumented.assert_superposition(*qubit, *basis)?;
                }
            }
        }
        if self.measure_data {
            instrumented.measure_data();
        }
        Ok(instrumented)
    }
}

fn counts_value(counts: &qsim::Counts) -> Value {
    Value::Obj(
        counts
            .to_sorted_vec()
            .into_iter()
            .map(|(bits, n)| (bits, Value::from(n)))
            .collect(),
    )
}

fn verdict_name(v: qassert::AssertionVerdict) -> &'static str {
    match v {
        qassert::AssertionVerdict::Holds => "holds",
        qassert::AssertionVerdict::Violated => "violated",
        qassert::AssertionVerdict::Undecided => "undecided",
    }
}

/// Renders the per-job NDJSON records, in stream order: one `verdict`
/// record per assertion, one `counts` record, one `plan` record. The
/// `telemetry` trailer is rendered separately
/// ([`telemetry_record`]) because the server appends live gauge state.
pub fn outcome_records(outcome: &AssertionOutcome, records: &[AssertionRecord]) -> Vec<Value> {
    let mut out = Vec::new();
    for (i, stats) in outcome.per_assertion.iter().enumerate() {
        let kind = records
            .get(i)
            .map(|r| r.assertion.kind_name())
            .unwrap_or("unknown");
        let mut members = vec![
            ("type", Value::from("verdict")),
            ("assertion", Value::from(i)),
            ("kind", Value::from(kind)),
            ("error_rate", Value::Num(stats.error_rate)),
            ("fired", Value::from(stats.fired)),
        ];
        if let Some(v) = outcome.verdicts.get(i) {
            members.push(("verdict", Value::from(verdict_name(v.verdict))));
            members.push(("shots", Value::from(v.shots)));
            members.push(("log_e_violated", Value::Num(v.log_e_violated)));
            members.push(("log_e_holds", Value::Num(v.log_e_holds)));
        }
        out.push(obj_from(members));
    }
    out.push(obj_from(vec![
        ("type", Value::from("counts")),
        ("shots_recorded", Value::from(outcome.raw.counts.total())),
        ("shots_kept", Value::from(outcome.kept.total())),
        (
            "assertion_error_rate",
            Value::Num(outcome.assertion_error_rate),
        ),
        ("raw", counts_value(&outcome.raw.counts)),
        ("kept", counts_value(&outcome.kept)),
        ("data_kept", counts_value(&outcome.data_kept)),
    ]));
    out.push(obj_from(vec![
        ("type", Value::from("plan")),
        ("shots_used", Value::from(outcome.plan.shots_used)),
        ("tranches", Value::from(outcome.plan.tranches)),
        ("stop", Value::from(outcome.plan.stop.to_string())),
    ]));
    out
}

fn obj_from(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Renders the `telemetry` trailer record: the session's own counters
/// plus whatever live server state the caller supplies in `extra`
/// (queue depth, pool gauges, backend name).
pub fn telemetry_record(telemetry: &SessionTelemetry, extra: Vec<(&str, Value)>) -> Value {
    let mut members = vec![
        ("type", Value::from("telemetry")),
        ("runs", Value::from(telemetry.runs)),
        ("shots", Value::from(telemetry.shots)),
        ("tranches", Value::from(telemetry.tranches)),
        ("early_stops", Value::from(telemetry.early_stops)),
        ("cache_hits", Value::from(telemetry.cache_hits)),
        ("cache_misses", Value::from(telemetry.cache_misses)),
        ("prefix_hits", Value::from(telemetry.prefix_hits)),
        ("simd", Value::from(telemetry.simd_backend)),
    ];
    members.extend(extra);
    obj_from(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GHZ: &str = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";

    fn spec_json(extra: &str) -> String {
        format!("{{\"qasm\": \"OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\ncx q[0],q[1];\\n\"{extra}}}")
    }

    #[test]
    fn minimal_spec_gets_defaults() {
        let spec = JobSpec::from_json(&spec_json("")).unwrap();
        assert_eq!(spec.backend, BackendKind::Statevector);
        assert_eq!(spec.plan, ShotPlan::Fixed(DEFAULT_JOB_SHOTS));
        assert_eq!(spec.seed, None);
        assert_eq!(spec.filter, FilterPolicy::RequireKept);
        assert!(spec.measure_data);
        assert!(spec.assertions.is_empty());
    }

    #[test]
    fn full_spec_parses() {
        let body = format!(
            "{{\"qasm\": {:?}, \"backend\": \"stabilizer\", \
             \"plan\": {{\"sequential\": {{\"alpha\": 0.01, \"min_shots\": 32, \
             \"max_shots\": 2048, \"tranche\": 64}}}}, \
             \"seed\": 7, \"threads\": 2, \"filter\": \"allow-empty\", \
             \"assertions\": [ \
               {{\"kind\": \"entangled\", \"qubits\": [0, 1, 2], \"parity\": \"even\"}}, \
               {{\"kind\": \"superposition\", \"qubit\": 0, \"basis\": \"plus\"}}, \
               {{\"kind\": \"classical\", \"qubits\": [2], \"expected\": [false]}} ], \
             \"measure_data\": true}}",
            GHZ
        );
        let spec = JobSpec::from_json(&body).unwrap();
        assert_eq!(spec.backend, BackendKind::Stabilizer);
        assert_eq!(
            spec.plan,
            ShotPlan::Sequential {
                alpha: 0.01,
                min_shots: 32,
                max_shots: 2048,
                tranche: 64
            }
        );
        assert_eq!(spec.seed, Some(7));
        assert_eq!(spec.threads, Some(2));
        assert_eq!(spec.filter, FilterPolicy::AllowEmpty);
        assert_eq!(spec.assertions.len(), 3);
        let circuit = spec.build_circuit().unwrap();
        assert_eq!(circuit.records().len(), 3);
    }

    #[test]
    fn bad_json_is_a_400_with_code() {
        let err = JobSpec::from_json("{not json").unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.code, "invalid_json");
        assert!(err.body().contains("\"error\":\"invalid_json\""));
    }

    #[test]
    fn qasm_errors_carry_the_span_into_the_body() {
        let spec =
            JobSpec::from_json("{\"qasm\": \"OPENQASM 2.0;\\nqreg q[1];\\nfrobnicate q[0];\\n\"}")
                .unwrap_err_or_build();
        assert_eq!(spec.status, 400);
        assert_eq!(spec.code, "invalid_qasm");
        let body = spec.body();
        assert!(body.contains("\"line\":3"), "body: {body}");
        assert!(body.contains("\"col\":1"), "body: {body}");
    }

    // Helper so the test above reads linearly: parse must succeed (the
    // spec shape is fine), building must fail (the QASM is not).
    trait UnwrapErrOrBuild {
        fn unwrap_err_or_build(self) -> ApiError;
    }
    impl UnwrapErrOrBuild for Result<JobSpec, ApiError> {
        fn unwrap_err_or_build(self) -> ApiError {
            match self {
                Ok(spec) => spec.build_circuit().expect_err("qasm must fail"),
                Err(e) => e,
            }
        }
    }

    #[test]
    fn unknown_backend_and_bad_plan_are_rejected() {
        let err = JobSpec::from_json(&spec_json(", \"backend\": \"quantum-cloud\"")).unwrap_err();
        assert_eq!(err.code, "unknown_backend");
        let err = JobSpec::from_json(&spec_json(", \"plan\": {\"fixed\": 0}")).unwrap_err();
        assert_eq!(err.code, "invalid_plan");
        let err =
            JobSpec::from_json(&spec_json(", \"plan\": {\"fixed\": 99999999999}")).unwrap_err();
        assert_eq!(err.code, "budget_too_large");
        assert_eq!(err.status, 400);
    }

    #[test]
    fn assertion_spec_errors_name_the_index() {
        let err = JobSpec::from_json(&spec_json(", \"assertions\": [{\"kind\": \"telepathy\"}]"))
            .unwrap_err();
        assert!(err.message.contains("assertion 0"), "{}", err.message);
        let err = JobSpec::from_json(&spec_json(
            ", \"assertions\": [{\"kind\": \"classical\", \"qubits\": [0]}]",
        ))
        .unwrap_err();
        assert!(err.message.contains("expected"), "{}", err.message);
    }

    #[test]
    fn out_of_range_assertion_fails_at_build() {
        let spec = JobSpec::from_json(&spec_json(
            ", \"assertions\": [{\"kind\": \"superposition\", \"qubit\": 99}]",
        ))
        .unwrap();
        let err = spec.build_circuit().unwrap_err();
        assert_eq!(err.code, "invalid_assertion");
    }

    #[test]
    fn records_render_deterministically() {
        use qassert::AssertionSession;
        use qsim::StatevectorBackend;

        let spec = JobSpec::from_json(&format!(
            "{{\"qasm\": {GHZ:?}, \"seed\": 11, \
             \"assertions\": [{{\"kind\": \"entangled\", \"qubits\": [0, 1, 2]}}]}}"
        ))
        .unwrap();
        let circuit = spec.build_circuit().unwrap();
        let session = AssertionSession::new(StatevectorBackend::new())
            .seed(11)
            .shot_plan(spec.plan);
        let a = session.run(&circuit).unwrap();
        let b = session.run(&circuit).unwrap();
        let render = |o: &AssertionOutcome| {
            outcome_records(o, circuit.records())
                .iter()
                .map(Value::render)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&a), render(&b), "seeded renders are byte-identical");
        assert!(render(&a).contains("\"type\":\"verdict\""));
        assert!(render(&a).contains("\"kind\":\"entanglement\""));
        assert!(render(&a).contains("\"type\":\"plan\""));
    }

    #[test]
    fn integer_fields_are_read_exactly_or_rejected_with_the_range() {
        // An f64 would run 2^53 + 1 as 2^53.
        let spec = JobSpec::from_json(&spec_json(", \"seed\": 9007199254740993")).unwrap();
        assert_eq!(spec.seed, Some(9_007_199_254_740_993));
        let spec = JobSpec::from_json(&spec_json(", \"seed\": 18446744073709551615")).unwrap();
        assert_eq!(spec.seed, Some(u64::MAX));
        // A fraction that rounds to a whole f64, an exponent, a negative
        // and a seed past u64 all get a 400 that names the range.
        for seed in ["2.9999999999999999", "3e0", "-1", "18446744073709551616"] {
            let err = JobSpec::from_json(&spec_json(&format!(", \"seed\": {seed}"))).unwrap_err();
            assert_eq!((err.status, err.code), (400, "invalid_job"), "{seed}");
            assert!(
                err.message.contains("'seed'") && err.message.contains("18446744073709551615"),
                "{seed}: {}",
                err.message
            );
        }
        // Plan sizes follow the same rule instead of rounding or
        // falling back to a default.
        for (plan, field) in [
            ("{\"fixed\": 63.99999999999999999}", "'plan.fixed'"),
            (
                "{\"sequential\": {\"tranche\": 2.5}}",
                "'plan.sequential.tranche'",
            ),
        ] {
            let err = JobSpec::from_json(&spec_json(&format!(", \"plan\": {plan}"))).unwrap_err();
            assert_eq!((err.status, err.code), (400, "invalid_job"), "{plan}");
            assert!(err.message.contains(field), "{plan}: {}", err.message);
        }
    }

    /// Asserts that `extra` gets a 400 `invalid_job` whose message names
    /// `field` and the type it expects.
    fn assert_wrong_type(extra: &str, field: &str, expected: &str) {
        let err = JobSpec::from_json(&spec_json(extra)).unwrap_err();
        assert_eq!((err.status, err.code), (400, "invalid_job"), "{extra}");
        assert_eq!(
            err.message,
            format!("'{field}' must be {expected}"),
            "{extra}"
        );
    }

    #[test]
    fn a_backend_of_the_wrong_type_is_rejected() {
        assert_wrong_type(", \"backend\": 7", "backend", "a string");
        let spec = JobSpec::from_json(&spec_json(", \"backend\": null")).unwrap();
        assert_eq!(spec.backend, BackendKind::Statevector);
    }

    #[test]
    fn a_filter_of_the_wrong_type_is_rejected() {
        assert_wrong_type(", \"filter\": true", "filter", "a string");
        let spec = JobSpec::from_json(&spec_json(", \"filter\": null")).unwrap();
        assert_eq!(spec.filter, FilterPolicy::RequireKept);
    }

    #[test]
    fn measure_data_of_the_wrong_type_is_rejected() {
        assert_wrong_type(", \"measure_data\": \"no\"", "measure_data", "a boolean");
        assert_wrong_type(", \"measure_data\": 0", "measure_data", "a boolean");
        let spec = JobSpec::from_json(&spec_json(", \"measure_data\": null")).unwrap();
        assert!(spec.measure_data);
    }

    #[test]
    fn a_sequential_alpha_of_the_wrong_type_is_rejected() {
        assert_wrong_type(
            ", \"plan\": {\"sequential\": {\"alpha\": \"0.01\"}}",
            "plan.sequential.alpha",
            "a number",
        );
        let spec = JobSpec::from_json(&spec_json(
            ", \"plan\": {\"sequential\": {\"alpha\": null}}",
        ))
        .unwrap();
        assert!(matches!(spec.plan, ShotPlan::Sequential { alpha, .. } if alpha == 0.05));
    }

    #[test]
    fn a_parity_of_the_wrong_type_is_rejected() {
        assert_wrong_type(
            ", \"assertions\": [{\"kind\": \"entangled\", \"qubits\": [0, 1], \"parity\": 1}]",
            "assertions[0].parity",
            "a string",
        );
    }

    #[test]
    fn a_basis_of_the_wrong_type_is_rejected() {
        assert_wrong_type(
            ", \"assertions\": [{\"kind\": \"superposition\", \"qubit\": 0, \"basis\": 7}]",
            "assertions[0].basis",
            "a string",
        );
    }

    #[test]
    fn threads_past_the_ceiling_are_rejected_at_parse_time() {
        let spec =
            JobSpec::from_json(&spec_json(&format!(", \"threads\": {MAX_JOB_THREADS}"))).unwrap();
        assert_eq!(spec.threads, Some(MAX_JOB_THREADS));
        for threads in ["0", "65", "65536", "2.5", "18446744073709551616"] {
            let err =
                JobSpec::from_json(&spec_json(&format!(", \"threads\": {threads}"))).unwrap_err();
            assert_eq!((err.status, err.code), (400, "invalid_job"), "{threads}");
            assert!(
                err.message
                    .contains(&format!("from 1 to {MAX_JOB_THREADS}")),
                "{threads}: {}",
                err.message
            );
        }
    }
}
