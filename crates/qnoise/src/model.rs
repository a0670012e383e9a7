//! Per-gate noise models.
//!
//! A [`NoiseModel`] attaches [`Kraus`] channels to gate applications and
//! [`ReadoutError`]s to measurements, mirroring how device calibration data
//! is reported: per-gate error rates, per-qubit coherence times, per-qubit
//! readout fidelities. The noisy executors in `qsim` query
//! [`NoiseModel::channels_for`] after applying each ideal gate.
//!
//! Lookup precedence, most specific first:
//! 1. channel registered for `(gate name, exact qubits)`,
//! 2. channel registered for `gate name` on any qubits,
//! 3. default channel for the gate's arity (1q / 2q).
//!
//! All channels found at the *most specific non-empty tier* are applied in
//! registration order (so depolarizing + thermal relaxation can stack).
//! In every tier a 1-qubit channel on a wider gate binds once per operand,
//! in operand order.

use crate::channel::Kraus;
use crate::readout::ReadoutError;
use qcircuit::{Instruction, OpKind, QuantumCircuit, QubitId};
use std::collections::HashMap;
use std::fmt;

/// A noise channel bound to the qubits it should act on.
#[derive(Clone, Debug, PartialEq)]
pub struct AppliedChannel {
    /// The channel. It shares its operators with the channel registered
    /// in the model, so binding copies no matrix.
    pub kraus: Kraus,
    /// The circuit qubits the channel acts on, in the channel's local
    /// order: all of the gate's operands for a channel of the gate's
    /// arity, or one operand for a 1-qubit channel broadcast over a wider
    /// gate.
    pub qubits: Vec<QubitId>,
}

/// How a registered channel selects its target qubits. Both scopes bind
/// through [`bind`], so a 1-qubit channel acts on each operand either
/// way; the scope still tags the channel in [`NoiseModel::fingerprint`].
#[derive(Clone, Debug, PartialEq)]
enum ChannelScope {
    /// Acts on the instruction's qubits, or on each of them for a
    /// 1-qubit channel.
    GateQubits(Kraus),
    /// A 1-qubit channel acting on each of the instruction's qubits.
    EachQubit(Kraus),
}

/// Noise description for a simulated device.
///
/// # Example
///
/// ```
/// use qnoise::{Kraus, NoiseModel, ReadoutError};
/// # fn main() -> Result<(), qnoise::ChannelError> {
/// let mut model = NoiseModel::new();
/// model
///     .with_default_1q(Kraus::depolarizing(0.001)?)
///     .with_default_2q(Kraus::depolarizing2(0.02)?)
///     .with_readout_error(0, ReadoutError::symmetric(0.03)?);
/// assert!(!model.is_ideal());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct NoiseModel {
    name: String,
    default_1q: Vec<Kraus>,
    default_2q: Vec<Kraus>,
    per_gate: HashMap<String, Vec<ChannelScope>>,
    /// Edge rules by gate name, then by operand list, so a lookup
    /// borrows the instruction's name and qubits instead of building a
    /// key.
    per_gate_qubits: HashMap<String, HashMap<Vec<QubitId>, Vec<Kraus>>>,
    readout: HashMap<QubitId, ReadoutError>,
}

impl NoiseModel {
    /// Creates an empty (ideal) noise model.
    pub fn new() -> Self {
        NoiseModel {
            name: String::from("custom"),
            ..NoiseModel::default()
        }
    }

    /// Creates an empty noise model with a display name.
    pub fn with_name(name: impl Into<String>) -> Self {
        NoiseModel {
            name: name.into(),
            ..NoiseModel::default()
        }
    }

    /// The model's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the model (used by sweep presets).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Registers a channel applied after every single-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not a 1-qubit channel.
    pub fn with_default_1q(&mut self, kraus: Kraus) -> &mut Self {
        assert_eq!(
            kraus.num_qubits(),
            1,
            "default 1q channel must act on one qubit"
        );
        self.default_1q.push(kraus);
        self
    }

    /// Registers a channel applied after every two-qubit gate.
    ///
    /// Accepts either a 2-qubit channel (applied to the gate's qubit
    /// pair) or a 1-qubit channel (broadcast to both operands: one bound
    /// channel per operand, in operand order).
    ///
    /// # Panics
    ///
    /// Panics if the channel acts on more than two qubits.
    pub fn with_default_2q(&mut self, kraus: Kraus) -> &mut Self {
        assert!(
            kraus.num_qubits() <= 2,
            "default 2q channel must act on 1 or 2 qubits"
        );
        self.default_2q.push(kraus);
        self
    }

    /// Registers a channel applied after every occurrence of the named
    /// gate. A channel whose arity matches the gate acts on the gate's
    /// qubits; a 1-qubit channel on a multi-qubit gate is broadcast to
    /// each operand (one bound channel per operand, in operand order).
    pub fn with_gate_error(&mut self, gate_name: impl Into<String>, kraus: Kraus) -> &mut Self {
        self.per_gate
            .entry(gate_name.into())
            .or_default()
            .push(ChannelScope::GateQubits(kraus));
        self
    }

    /// Registers a 1-qubit channel applied to *each operand* of the named
    /// gate (e.g. thermal relaxation on both qubits of a CX).
    ///
    /// # Panics
    ///
    /// Panics if the channel is not a 1-qubit channel.
    pub fn with_gate_error_each_qubit(
        &mut self,
        gate_name: impl Into<String>,
        kraus: Kraus,
    ) -> &mut Self {
        assert_eq!(
            kraus.num_qubits(),
            1,
            "per-operand channel must act on one qubit"
        );
        self.per_gate
            .entry(gate_name.into())
            .or_default()
            .push(ChannelScope::EachQubit(kraus));
        self
    }

    /// Registers a channel applied only when the named gate acts on
    /// exactly the given qubits, in that order (calibration data is
    /// edge-specific on real devices). It binds like
    /// [`with_gate_error`](NoiseModel::with_gate_error): a 1-qubit
    /// channel on a multi-qubit gate is broadcast to each operand.
    pub fn with_gate_error_on(
        &mut self,
        gate_name: impl Into<String>,
        qubits: impl IntoIterator<Item = QubitId>,
        kraus: Kraus,
    ) -> &mut Self {
        self.per_gate_qubits
            .entry(gate_name.into())
            .or_default()
            .entry(qubits.into_iter().collect())
            .or_default()
            .push(kraus);
        self
    }

    /// Sets the readout error of one qubit.
    pub fn with_readout_error(
        &mut self,
        qubit: impl Into<QubitId>,
        error: ReadoutError,
    ) -> &mut Self {
        self.readout.insert(qubit.into(), error);
        self
    }

    /// The readout error of a qubit (ideal when unset).
    pub fn readout_error(&self, qubit: QubitId) -> ReadoutError {
        self.readout.get(&qubit).copied().unwrap_or_default()
    }

    /// Returns `true` when no channels or readout errors are registered.
    pub fn is_ideal(&self) -> bool {
        self.default_1q.is_empty()
            && self.default_2q.is_empty()
            && self.per_gate.is_empty()
            && self.per_gate_qubits.is_empty()
            && self.readout.values().all(ReadoutError::is_ideal)
    }

    /// The noise channels to apply after executing `instruction`, in
    /// application order.
    ///
    /// Non-gate instructions (measure, reset, barrier, post-select)
    /// produce no channels — measurement noise is modeled by
    /// [`NoiseModel::readout_error`] instead.
    pub fn channels_for(&self, instruction: &Instruction) -> Vec<AppliedChannel> {
        let gate = match instruction.kind() {
            OpKind::Gate(g) => g,
            _ => return Vec::new(),
        };
        let qubits = instruction.qubits();
        let mut out = Vec::new();
        let edge = self
            .per_gate_qubits
            .get(gate.name())
            .and_then(|edges| edges.get(qubits));
        if let Some(channels) = edge {
            // Tier 1: exact (gate, qubits) registration.
            for k in channels {
                bind(k, qubits, &mut out);
            }
        } else if let Some(scopes) = self.per_gate.get(gate.name()) {
            // Tier 2: per-gate-name registration.
            for ChannelScope::GateQubits(k) | ChannelScope::EachQubit(k) in scopes {
                bind(k, qubits, &mut out);
            }
        } else {
            // Tier 3: defaults by arity.
            let defaults: &[Kraus] = match qubits.len() {
                1 => &self.default_1q,
                2 => &self.default_2q,
                _ => &[],
            };
            for k in defaults {
                bind(k, qubits, &mut out);
            }
        }
        out
    }

    /// A 128-bit content fingerprint of the model: every registered
    /// channel's Kraus matrices (exact f64 bit patterns), scope, and
    /// target, plus all readout errors. Models with identical noise
    /// semantics fingerprint identically regardless of display name or
    /// registration-map iteration order; `qsim`'s program cache uses
    /// this as the noise component of its key.
    ///
    /// Two independently-seeded 64-bit mix streams, matching the width
    /// of `qcircuit`'s structural hash: sweeps hold the circuit fixed
    /// and vary only the noise, so the noise component alone must make
    /// silent key collisions (and thus silently wrong pre-bound
    /// channels) unreachable in practice, not merely improbable.
    pub fn fingerprint(&self) -> u128 {
        let mut lo = Fingerprint::new(0xA409_3822_299F_31D0); // pi, third chunk
        let mut hi = Fingerprint::new(0x082E_FA98_EC4E_6C89); // pi, fourth chunk
        for h in [&mut lo, &mut hi] {
            self.write_fingerprint(h);
        }
        (u128::from(hi.finish()) << 64) | u128::from(lo.finish())
    }

    /// Feeds the model's entire noise content into one hash stream.
    fn write_fingerprint(&self, h: &mut Fingerprint) {
        h.write(self.default_1q.len() as u64);
        for k in &self.default_1q {
            h.write_kraus(k);
        }
        h.write(self.default_2q.len() as u64);
        for k in &self.default_2q {
            h.write_kraus(k);
        }
        // HashMap iteration order is unspecified: sort rule keys first.
        let mut gate_names: Vec<&String> = self.per_gate.keys().collect();
        gate_names.sort_unstable();
        for name in gate_names {
            h.write_str(name);
            h.write(self.per_gate[name].len() as u64);
            for scope in &self.per_gate[name] {
                match scope {
                    ChannelScope::GateQubits(k) => {
                        h.write(1);
                        h.write_kraus(k);
                    }
                    ChannelScope::EachQubit(k) => {
                        h.write(2);
                        h.write_kraus(k);
                    }
                }
            }
        }
        let mut edges: Vec<(&String, &Vec<QubitId>, &Vec<Kraus>)> = self
            .per_gate_qubits
            .iter()
            .flat_map(|(name, rules)| rules.iter().map(move |(qubits, ks)| (name, qubits, ks)))
            .collect();
        edges.sort_unstable_by(|a, b| a.0.cmp(b.0).then_with(|| a.1.cmp(b.1)));
        for (name, qubits, channels) in edges {
            h.write_str(name);
            h.write(qubits.len() as u64);
            for q in qubits {
                h.write(q.index() as u64);
            }
            h.write(channels.len() as u64);
            for k in channels {
                h.write_kraus(k);
            }
        }
        let mut readouts: Vec<(&QubitId, &ReadoutError)> = self.readout.iter().collect();
        readouts.sort_unstable_by_key(|(q, _)| **q);
        for (q, r) in readouts {
            h.write(q.index() as u64);
            h.write(r.p_meas1_given0().to_bits());
            h.write(r.p_meas0_given1().to_bits());
        }
    }

    /// Binds the model to a whole circuit at once: entry `i` holds the
    /// channels to apply after instruction `i`.
    ///
    /// This is the compile-time entry point used by `qsim`'s lowering
    /// pipeline — the rule lookup (gate-name maps, edge-specific rules,
    /// arity defaults) runs **once per instruction per compilation**
    /// instead of once per gate per shot.
    pub fn bind_circuit(&self, circuit: &QuantumCircuit) -> Vec<Vec<AppliedChannel>> {
        circuit
            .instructions()
            .iter()
            .map(|instr| self.channels_for(instr))
            .collect()
    }
}

/// Binds a channel to an instruction's qubits, appending to `out`: a
/// channel of matching arity targets all of them; a 1-qubit channel on a
/// wider gate is broadcast, one bound channel per operand in operand
/// order. Each bound channel shares `kraus`'s operators.
///
/// # Panics
///
/// Panics when a channel of two or more qubits does not match the
/// gate's arity.
fn bind(kraus: &Kraus, qubits: &[QubitId], out: &mut Vec<AppliedChannel>) {
    if kraus.num_qubits() == qubits.len() {
        out.push(AppliedChannel {
            kraus: kraus.clone(),
            qubits: qubits.to_vec(),
        });
        return;
    }
    assert_eq!(
        kraus.num_qubits(),
        1,
        "channel arity {} does not match gate arity {}",
        kraus.num_qubits(),
        qubits.len()
    );
    out.extend(qubits.iter().map(|&q| AppliedChannel {
        kraus: kraus.clone(),
        qubits: vec![q],
    }));
}

/// SplitMix64-based accumulator for [`NoiseModel::fingerprint`].
struct Fingerprint {
    state: u64,
}

impl Fingerprint {
    fn new(seed: u64) -> Self {
        Fingerprint { state: seed }
    }

    fn write(&mut self, value: u64) {
        let mut z = self
            .state
            .rotate_left(23)
            .wrapping_add(value)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.state = z ^ (z >> 31);
    }

    fn write_str(&mut self, s: &str) {
        self.write(s.len() as u64);
        for b in s.as_bytes() {
            self.write(u64::from(*b));
        }
    }

    fn write_kraus(&mut self, kraus: &Kraus) {
        let ops = kraus.ops();
        self.write(ops.len() as u64);
        for op in ops {
            self.write(op.dim() as u64);
            for c in op.as_slice() {
                self.write(c.re.to_bits());
                self.write(c.im.to_bits());
            }
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

impl fmt::Display for NoiseModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "noise model '{}' (1q defaults: {}, 2q defaults: {}, gate rules: {}, edge rules: {}, readout: {})",
            self.name,
            self.default_1q.len(),
            self.default_2q.len(),
            self.per_gate.len(),
            self.per_gate_qubits.values().map(HashMap::len).sum::<usize>(),
            self.readout.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{Gate, Instruction};

    fn dep1() -> Kraus {
        Kraus::depolarizing(0.01).unwrap()
    }

    fn dep2() -> Kraus {
        Kraus::depolarizing2(0.05).unwrap()
    }

    /// The fingerprint of the model in
    /// `fingerprints_are_pinned_across_rule_storage`.
    const PINNED_FINGERPRINT: u128 = 0xFE4F_394B_423B_6AF6_F608_34A6_8833_1FDD;

    #[test]
    fn empty_model_is_ideal_and_silent() {
        let model = NoiseModel::new();
        assert!(model.is_ideal());
        let instr = Instruction::gate(Gate::H, [0]);
        assert!(model.channels_for(&instr).is_empty());
        assert!(model.readout_error(QubitId::new(0)).is_ideal());
    }

    #[test]
    fn default_tiers_dispatch_by_arity() {
        let mut model = NoiseModel::new();
        model.with_default_1q(dep1()).with_default_2q(dep2());
        let one = model.channels_for(&Instruction::gate(Gate::H, [0]));
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].kraus.num_qubits(), 1);
        let two = model.channels_for(&Instruction::gate(Gate::Cx, [0, 1]));
        assert_eq!(two.len(), 1);
        assert_eq!(two[0].kraus.num_qubits(), 2);
        assert_eq!(two[0].qubits, vec![QubitId::new(0), QubitId::new(1)]);
    }

    #[test]
    fn per_gate_rule_overrides_default() {
        let mut model = NoiseModel::new();
        model
            .with_default_2q(dep2())
            .with_gate_error("cx", Kraus::depolarizing2(0.2).unwrap());
        let channels = model.channels_for(&Instruction::gate(Gate::Cx, [0, 1]));
        assert_eq!(channels.len(), 1);
        // The override (p = 0.2), not the default (p = 0.05).
        let weight = channels[0].kraus.ops()[0].get(0, 0).norm_sqr();
        assert!((weight - (1.0 - 15.0 * 0.2 / 16.0)).abs() < 1e-12);
    }

    #[test]
    fn edge_specific_rule_overrides_per_gate() {
        let mut model = NoiseModel::new();
        model.with_gate_error("cx", dep2()).with_gate_error_on(
            "cx",
            [QubitId::new(1), QubitId::new(0)],
            Kraus::depolarizing2(0.3).unwrap(),
        );
        // The registered edge (1, 0).
        let hit = model.channels_for(&Instruction::gate(Gate::Cx, [1, 0]));
        let weight = hit[0].kraus.ops()[0].get(0, 0).norm_sqr();
        assert!((weight - (1.0 - 15.0 * 0.3 / 16.0)).abs() < 1e-12);
        // A different edge falls back to the per-gate rule.
        let miss = model.channels_for(&Instruction::gate(Gate::Cx, [0, 1]));
        let weight = miss[0].kraus.ops()[0].get(0, 0).norm_sqr();
        assert!((weight - (1.0 - 15.0 * 0.05 / 16.0)).abs() < 1e-12);
    }

    #[test]
    fn each_qubit_scope_broadcasts() {
        let mut model = NoiseModel::new();
        model.with_gate_error_each_qubit("cx", dep1());
        let channels = model.channels_for(&Instruction::gate(Gate::Cx, [2, 4]));
        assert_eq!(channels.len(), 2);
        assert_eq!(channels[0].qubits, vec![QubitId::new(2)]);
        assert_eq!(channels[1].qubits, vec![QubitId::new(4)]);
    }

    /// The channels `model` binds to `cx(2, 5)`: one 1-qubit channel per
    /// operand, in operand order, each sharing `dep`'s operators.
    fn assert_broadcast_over_cx(model: &NoiseModel, dep: &Kraus) {
        let channels = model.channels_for(&Instruction::gate(Gate::Cx, [2, 5]));
        let targets: Vec<&[QubitId]> = channels.iter().map(|a| a.qubits.as_slice()).collect();
        assert_eq!(targets, [[QubitId::new(2)], [QubitId::new(5)]]);
        for applied in &channels {
            assert_eq!(&applied.kraus, dep);
            assert_eq!(applied.kraus.ops().as_ptr(), dep.ops().as_ptr());
        }
    }

    #[test]
    fn edge_rule_broadcasts_a_1q_channel_to_each_operand() {
        let mut model = NoiseModel::new();
        let dep = Kraus::depolarizing(0.1).unwrap();
        model.with_gate_error_on("cx", [QubitId::new(2), QubitId::new(5)], dep.clone());
        assert_broadcast_over_cx(&model, &dep);
    }

    #[test]
    fn gate_rule_broadcasts_a_1q_channel_to_each_operand() {
        let mut model = NoiseModel::new();
        let dep = Kraus::depolarizing(0.1).unwrap();
        model.with_gate_error("cx", dep.clone());
        assert_broadcast_over_cx(&model, &dep);
        // The same binding as the explicit per-operand scope.
        let mut each = NoiseModel::new();
        each.with_gate_error_each_qubit("cx", dep.clone());
        let cx = Instruction::gate(Gate::Cx, [2, 5]);
        assert_eq!(model.channels_for(&cx), each.channels_for(&cx));
    }

    #[test]
    fn default_2q_broadcasts_a_1q_channel_to_each_operand() {
        let mut model = NoiseModel::new();
        let dep = Kraus::depolarizing(0.1).unwrap();
        model.with_default_2q(dep.clone());
        assert_broadcast_over_cx(&model, &dep);
    }

    #[test]
    fn fingerprints_are_pinned_across_rule_storage() {
        // Every rule kind, two edges under one gate name. Program-cache
        // keys include this value, so it must not move with the way the
        // rules are stored.
        let mut model = NoiseModel::new();
        model
            .with_default_1q(dep1())
            .with_default_2q(dep2())
            .with_gate_error("h", dep1())
            .with_gate_error_each_qubit("cx", dep1())
            .with_gate_error_on("cx", [QubitId::new(1), QubitId::new(0)], dep2())
            .with_gate_error_on("cx", [QubitId::new(0), QubitId::new(1)], dep2())
            .with_gate_error_on("x", [QubitId::new(3)], dep1())
            .with_readout_error(1, ReadoutError::symmetric(0.04).unwrap());
        assert_eq!(model.fingerprint(), PINNED_FINGERPRINT);
        assert!(model.to_string().contains("edge rules: 3"), "{model}");
    }

    #[test]
    fn channels_stack_in_registration_order() {
        let mut model = NoiseModel::new();
        model
            .with_gate_error("h", dep1())
            .with_gate_error_each_qubit("h", Kraus::amplitude_damping(0.1).unwrap());
        let channels = model.channels_for(&Instruction::gate(Gate::H, [0]));
        assert_eq!(channels.len(), 2);
    }

    #[test]
    fn non_gate_instructions_get_no_channels() {
        let mut model = NoiseModel::new();
        model.with_default_1q(dep1());
        assert!(model.channels_for(&Instruction::measure(0, 0)).is_empty());
        assert!(model.channels_for(&Instruction::barrier([0, 1])).is_empty());
        assert!(model
            .channels_for(&Instruction::post_select(0, false))
            .is_empty());
    }

    #[test]
    fn readout_errors_are_per_qubit() {
        let mut model = NoiseModel::new();
        model.with_readout_error(1, ReadoutError::symmetric(0.04).unwrap());
        assert!(model.readout_error(QubitId::new(0)).is_ideal());
        assert_eq!(model.readout_error(QubitId::new(1)).p_meas1_given0(), 0.04);
        assert!(!model.is_ideal());
    }

    #[test]
    fn three_qubit_gates_get_no_default_noise() {
        let mut model = NoiseModel::new();
        model.with_default_1q(dep1()).with_default_2q(dep2());
        let channels = model.channels_for(&Instruction::gate(Gate::Ccx, [0, 1, 2]));
        assert!(channels.is_empty());
    }

    #[test]
    fn bind_circuit_matches_per_instruction_lookup() {
        let mut model = NoiseModel::new();
        model.with_default_1q(dep1()).with_default_2q(dep2());
        let mut c = QuantumCircuit::new(2, 2);
        c.h(0).unwrap().cx(0, 1).unwrap();
        c.measure(0, 0).unwrap().measure(1, 1).unwrap();
        let bound = model.bind_circuit(&c);
        assert_eq!(bound.len(), c.len());
        for (instr, channels) in c.instructions().iter().zip(&bound) {
            assert_eq!(channels, &model.channels_for(instr));
        }
        // Gates get channels, measurements do not.
        assert_eq!(bound[0].len(), 1);
        assert_eq!(bound[1].len(), 1);
        assert!(bound[2].is_empty() && bound[3].is_empty());
    }

    #[test]
    fn fingerprint_is_content_addressed_and_name_blind() {
        let mut a = NoiseModel::with_name("alpha");
        a.with_default_1q(dep1())
            .with_gate_error("cx", dep2())
            .with_readout_error(1, ReadoutError::symmetric(0.04).unwrap());
        let mut b = NoiseModel::with_name("beta");
        b.with_default_1q(dep1())
            .with_gate_error("cx", dep2())
            .with_readout_error(1, ReadoutError::symmetric(0.04).unwrap());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.fingerprint());
    }

    #[test]
    fn fingerprint_separates_different_noise() {
        let ideal = NoiseModel::new();
        let mut weak = NoiseModel::new();
        weak.with_default_1q(dep1());
        let mut strong = NoiseModel::new();
        strong.with_default_1q(Kraus::depolarizing(0.011).unwrap());
        let mut scoped = NoiseModel::new();
        scoped.with_gate_error_each_qubit("h", dep1());
        let mut gate = NoiseModel::new();
        gate.with_gate_error("h", dep1());
        let mut readout = NoiseModel::new();
        readout.with_readout_error(0, ReadoutError::new(0.1, 0.0).unwrap());
        let mut readout_flipped = NoiseModel::new();
        readout_flipped.with_readout_error(0, ReadoutError::new(0.0, 0.1).unwrap());
        let fps = [
            ideal.fingerprint(),
            weak.fingerprint(),
            strong.fingerprint(),
            scoped.fingerprint(),
            gate.fingerprint(),
            readout.fingerprint(),
            readout_flipped.fingerprint(),
        ];
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b, "distinct noise models collided");
            }
        }
    }

    #[test]
    fn fingerprint_ignores_map_insertion_order() {
        let mut ab = NoiseModel::new();
        ab.with_gate_error("h", dep1()).with_gate_error("x", dep1());
        ab.with_readout_error(0, ReadoutError::symmetric(0.01).unwrap())
            .with_readout_error(3, ReadoutError::symmetric(0.02).unwrap());
        let mut ba = NoiseModel::new();
        ba.with_gate_error("x", dep1()).with_gate_error("h", dep1());
        ba.with_readout_error(3, ReadoutError::symmetric(0.02).unwrap())
            .with_readout_error(0, ReadoutError::symmetric(0.01).unwrap());
        assert_eq!(ab.fingerprint(), ba.fingerprint());
    }

    #[test]
    fn display_summarizes_contents() {
        let mut model = NoiseModel::with_name("test-device");
        model.with_default_1q(dep1());
        let s = model.to_string();
        assert!(s.contains("test-device"));
        assert!(s.contains("1q defaults: 1"));
    }
}
