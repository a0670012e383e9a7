//! The circuit container and fluent builder.

use crate::error::CircuitError;
use crate::gate::Gate;
use crate::instruction::{Condition, Instruction, OpKind};
use crate::register::{ClbitId, QubitId};
use std::collections::BTreeMap;
use std::fmt;

/// An ordered list of instructions over a fixed set of quantum and
/// classical wires.
///
/// Gate helpers validate operands and return `&mut Self` for chaining:
///
/// ```
/// use qcircuit::QuantumCircuit;
/// # fn main() -> Result<(), qcircuit::CircuitError> {
/// let mut bell = QuantumCircuit::new(2, 2);
/// bell.h(0)?.cx(0, 1)?.measure(0, 0)?.measure(1, 1)?;
/// assert_eq!(bell.len(), 4);
/// assert_eq!(bell.depth(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct QuantumCircuit {
    name: String,
    num_qubits: usize,
    num_clbits: usize,
    instructions: Vec<Instruction>,
}

impl QuantumCircuit {
    /// Creates an empty circuit with the given wire counts.
    pub fn new(num_qubits: usize, num_clbits: usize) -> Self {
        QuantumCircuit {
            name: String::from("circuit"),
            num_qubits,
            num_clbits,
            instructions: Vec::new(),
        }
    }

    /// Creates an empty named circuit.
    pub fn with_name(name: impl Into<String>, num_qubits: usize, num_clbits: usize) -> Self {
        QuantumCircuit {
            name: name.into(),
            num_qubits,
            num_clbits,
            instructions: Vec::new(),
        }
    }

    /// The circuit's name (used in reports and rendering).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The instruction sequence.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions (including barriers).
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` when the circuit contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Adds a fresh qubit wire and returns its id.
    ///
    /// This is how the assertion instrumenter allocates ancilla qubits.
    pub fn add_qubit(&mut self) -> QubitId {
        let id = QubitId::from(self.num_qubits);
        self.num_qubits += 1;
        id
    }

    /// Adds a fresh classical wire and returns its id.
    pub fn add_clbit(&mut self) -> ClbitId {
        let id = ClbitId::from(self.num_clbits);
        self.num_clbits += 1;
        id
    }

    /// Validates and appends an instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] when operands are out of range or
    /// duplicated, the gate arity is wrong, or a condition is attached to
    /// an operation that cannot carry one.
    pub fn append(&mut self, instruction: Instruction) -> Result<&mut Self, CircuitError> {
        self.validate(&instruction)?;
        self.instructions.push(instruction);
        Ok(self)
    }

    fn validate(&self, instruction: &Instruction) -> Result<(), CircuitError> {
        for q in instruction.qubits() {
            if q.index() >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q.index(),
                    num_qubits: self.num_qubits,
                });
            }
        }
        for c in instruction.clbits() {
            if c.index() >= self.num_clbits {
                return Err(CircuitError::ClbitOutOfRange {
                    clbit: c.index(),
                    num_clbits: self.num_clbits,
                });
            }
        }
        // Multi-qubit operations need distinct operands.
        let qs = instruction.qubits();
        for (i, q) in qs.iter().enumerate() {
            if qs[i + 1..].contains(q) {
                return Err(CircuitError::DuplicateQubit { qubit: q.index() });
            }
        }
        if let OpKind::Gate(g) = instruction.kind() {
            if g.num_qubits() != qs.len() {
                return Err(CircuitError::ArityMismatch {
                    gate: g.name(),
                    expected: g.num_qubits(),
                    got: qs.len(),
                });
            }
        }
        if let Some(cond) = instruction.condition() {
            if !matches!(instruction.kind(), OpKind::Gate(_) | OpKind::Reset) {
                return Err(CircuitError::UnsupportedCondition {
                    op: instruction.kind().name(),
                });
            }
            if cond.clbit.index() >= self.num_clbits {
                return Err(CircuitError::ClbitOutOfRange {
                    clbit: cond.clbit.index(),
                    num_clbits: self.num_clbits,
                });
            }
        }
        Ok(())
    }

    /// Appends a gate on the given qubits.
    ///
    /// # Errors
    ///
    /// See [`QuantumCircuit::append`].
    pub fn gate<Q, I>(&mut self, gate: Gate, qubits: I) -> Result<&mut Self, CircuitError>
    where
        Q: Into<QubitId>,
        I: IntoIterator<Item = Q>,
    {
        self.append(Instruction::gate(gate, qubits))
    }

    /// Appends a classically-conditioned gate: applied only when `clbit`
    /// holds `value` at runtime.
    ///
    /// # Errors
    ///
    /// See [`QuantumCircuit::append`].
    pub fn gate_if<Q, I>(
        &mut self,
        gate: Gate,
        qubits: I,
        clbit: impl Into<ClbitId>,
        value: bool,
    ) -> Result<&mut Self, CircuitError>
    where
        Q: Into<QubitId>,
        I: IntoIterator<Item = Q>,
    {
        self.append(Instruction::gate(gate, qubits).with_condition(Condition {
            clbit: clbit.into(),
            value,
        }))
    }

    /// Appends a measurement of `qubit` into `clbit`.
    ///
    /// # Errors
    ///
    /// See [`QuantumCircuit::append`].
    pub fn measure(
        &mut self,
        qubit: impl Into<QubitId>,
        clbit: impl Into<ClbitId>,
    ) -> Result<&mut Self, CircuitError> {
        self.append(Instruction::measure(qubit, clbit))
    }

    /// Measures every qubit `i` into classical bit `i`, growing the
    /// classical register if it is too small.
    pub fn measure_all(&mut self) -> &mut Self {
        while self.num_clbits < self.num_qubits {
            self.add_clbit();
        }
        for q in 0..self.num_qubits {
            self.instructions.push(Instruction::measure(q, q));
        }
        self
    }

    /// Appends a reset of `qubit` to `|0⟩`.
    ///
    /// # Errors
    ///
    /// See [`QuantumCircuit::append`].
    pub fn reset(&mut self, qubit: impl Into<QubitId>) -> Result<&mut Self, CircuitError> {
        self.append(Instruction::reset(qubit))
    }

    /// Appends a barrier over the given qubits.
    ///
    /// # Errors
    ///
    /// See [`QuantumCircuit::append`].
    pub fn barrier<Q, I>(&mut self, qubits: I) -> Result<&mut Self, CircuitError>
    where
        Q: Into<QubitId>,
        I: IntoIterator<Item = Q>,
    {
        self.append(Instruction::barrier(qubits))
    }

    /// Appends a barrier across every qubit.
    pub fn barrier_all(&mut self) -> &mut Self {
        let instr = Instruction::barrier(0..self.num_qubits);
        self.instructions.push(instr);
        self
    }

    /// Appends a post-selection of `qubit` on `outcome` (simulator only).
    ///
    /// # Errors
    ///
    /// See [`QuantumCircuit::append`].
    pub fn post_select(
        &mut self,
        qubit: impl Into<QubitId>,
        outcome: bool,
    ) -> Result<&mut Self, CircuitError> {
        self.append(Instruction::post_select(qubit, outcome))
    }

    /// Inlines `other` into this circuit, mapping its qubit `i` to
    /// `qubit_map[i]` and its clbit `j` to `clbit_map[j]`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::MappingSizeMismatch`] when a map does not
    /// cover the inlined circuit's wires, or a validation error when a
    /// mapped operand is out of range for `self`.
    pub fn compose(
        &mut self,
        other: &QuantumCircuit,
        qubit_map: &[QubitId],
        clbit_map: &[ClbitId],
    ) -> Result<&mut Self, CircuitError> {
        if qubit_map.len() != other.num_qubits {
            return Err(CircuitError::MappingSizeMismatch {
                wire_kind: "qubit",
                expected: other.num_qubits,
                got: qubit_map.len(),
            });
        }
        if clbit_map.len() != other.num_clbits {
            return Err(CircuitError::MappingSizeMismatch {
                wire_kind: "clbit",
                expected: other.num_clbits,
                got: clbit_map.len(),
            });
        }
        for instr in &other.instructions {
            let mapped = instr.remapped(|q| qubit_map[q.index()], |c| clbit_map[c.index()]);
            self.append(mapped)?;
        }
        Ok(self)
    }

    /// Returns the inverse circuit: gates reversed and individually
    /// inverted.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotInvertible`] when the circuit contains a
    /// measurement, reset, post-selection, or conditioned gate. Barriers
    /// are preserved.
    pub fn inverse(&self) -> Result<QuantumCircuit, CircuitError> {
        let mut inv = QuantumCircuit::with_name(
            format!("{}_dg", self.name),
            self.num_qubits,
            self.num_clbits,
        );
        for instr in self.instructions.iter().rev() {
            if instr.condition().is_some() {
                return Err(CircuitError::NotInvertible {
                    op: "conditioned gate",
                });
            }
            match instr.kind() {
                OpKind::Gate(g) => {
                    inv.instructions.push(Instruction::gate(
                        g.inverse(),
                        instr.qubits().iter().copied(),
                    ));
                }
                OpKind::Barrier => {
                    inv.instructions
                        .push(Instruction::barrier(instr.qubits().iter().copied()));
                }
                other => {
                    return Err(CircuitError::NotInvertible { op: other.name() });
                }
            }
        }
        Ok(inv)
    }

    /// Returns a copy with all trailing measurements removed (useful for
    /// computing the pre-measurement state of a sampled circuit).
    pub fn without_final_measurements(&self) -> QuantumCircuit {
        let mut trimmed = self.clone();
        while let Some(last) = trimmed.instructions.last() {
            if matches!(last.kind(), OpKind::Measure | OpKind::Barrier) {
                trimmed.instructions.pop();
            } else {
                break;
            }
        }
        trimmed
    }

    /// Circuit depth: the length of the longest wire-dependency chain.
    /// Barriers count as synchronization points but contribute no depth.
    pub fn depth(&self) -> usize {
        let mut q_level = vec![0usize; self.num_qubits];
        let mut c_level = vec![0usize; self.num_clbits];
        let mut depth = 0usize;
        for instr in &self.instructions {
            let wires_max = instr
                .qubits()
                .iter()
                .map(|q| q_level[q.index()])
                .chain(instr.clbits().iter().map(|c| c_level[c.index()]))
                .chain(instr.condition().map(|cond| c_level[cond.clbit.index()]))
                .max()
                .unwrap_or(0);
            let level = if matches!(instr.kind(), OpKind::Barrier) {
                wires_max
            } else {
                wires_max + 1
            };
            for q in instr.qubits() {
                q_level[q.index()] = level;
            }
            for c in instr.clbits() {
                c_level[c.index()] = level;
            }
            if let Some(cond) = instr.condition() {
                c_level[cond.clbit.index()] = level;
            }
            depth = depth.max(level);
        }
        depth
    }

    /// Histogram of operation names to occurrence counts.
    pub fn count_ops(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for instr in &self.instructions {
            *counts.entry(instr.kind().name()).or_insert(0) += 1;
        }
        counts
    }

    /// Number of gates acting on two or more qubits (the dominant error
    /// source on NISQ hardware; used for assertion-overhead reporting).
    pub fn multi_qubit_gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i.kind(), OpKind::Gate(g) if g.num_qubits() >= 2))
            .count()
    }

    /// Number of measurement instructions.
    pub fn measurement_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i.kind(), OpKind::Measure))
            .count()
    }

    /// Returns `true` when the circuit contains any non-unitary operation
    /// other than barriers.
    pub fn has_nonunitary_ops(&self) -> bool {
        self.instructions.iter().any(|i| {
            matches!(
                i.kind(),
                OpKind::Measure | OpKind::Reset | OpKind::PostSelect { .. }
            )
        })
    }

    /// A 128-bit structural hash of the circuit: register widths plus
    /// every instruction's operation, exact parameter bit patterns,
    /// operands, and condition. Circuits that execute identically hash
    /// identically; the circuit *name* is ignored.
    ///
    /// This is the circuit component of `qsim`'s program-cache key, so
    /// it is built from two independently-seeded 64-bit mix streams —
    /// a single 64-bit hash would make silent cache collisions (and
    /// thus silently wrong programs) merely improbable; 128 bits makes
    /// them unreachable in practice.
    pub fn structural_hash(&self) -> u128 {
        // pi, then more pi
        let mut h = StructuralHasher::new([0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344]);
        h.write(self.num_qubits as u64);
        h.write(self.num_clbits as u64);
        h.write(self.instructions.len() as u64);
        for instr in &self.instructions {
            h.write_instruction(instr);
        }
        h.finish()
    }

    /// Rolling 128-bit structural hashes of the circuit's instruction
    /// prefixes: element `k` hashes `instructions[0..k]`, so element `0`
    /// covers the empty stream and element `len()` the whole stream.
    ///
    /// Unlike [`QuantumCircuit::structural_hash`] (which also folds in
    /// the register widths and instruction count up front, making it
    /// non-incremental), these hashes satisfy the prefix property:
    /// circuit `A`'s instruction stream is an exact prefix of `B`'s iff
    /// `A.prefix_hashes().last() == B.prefix_hashes()[A.len()]`. The
    /// register widths are deliberately excluded — an instrumented
    /// circuit family grows ancilla wires and clbits as assertions are
    /// appended, yet each member's stream still extends the previous
    /// one. Sweep harnesses use this to detect shared lowered prefixes
    /// across a family without comparing instruction streams.
    pub fn prefix_hashes(&self) -> Vec<u128> {
        // pi, fifth and sixth chunks
        let mut h = StructuralHasher::new([0x4528_21E6_38D0_1377, 0xBE54_66CF_34E9_0C6C]);
        let mut out = Vec::with_capacity(self.instructions.len() + 1);
        out.push(h.finish());
        for instr in &self.instructions {
            h.write_instruction(instr);
            out.push(h.finish());
        }
        out
    }
}

/// SplitMix64-based accumulator for [`QuantumCircuit::structural_hash`]:
/// two independently seeded 64-bit lanes (low, high) fed the same
/// writes. Each write advances both lanes in one step, so their two
/// dependent multiply chains overlap instead of running one after the
/// other.
struct StructuralHasher {
    lanes: [u64; 2],
}

impl StructuralHasher {
    fn new(seeds: [u64; 2]) -> Self {
        StructuralHasher { lanes: seeds }
    }

    fn write(&mut self, value: u64) {
        for state in &mut self.lanes {
            let mut z = state
                .rotate_left(23)
                .wrapping_add(value)
                .wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *state = z ^ (z >> 31);
        }
    }

    fn write_instruction(&mut self, instr: &Instruction) {
        // Operation tag + payload. Gate parameters hash by exact f64 bit
        // pattern: Rx(0.1) and Rx(0.1 + 1e-17) are different circuits.
        match instr.kind() {
            OpKind::Gate(g) => {
                self.write(1);
                self.write_str(g.name());
                for p in g.params() {
                    self.write(p.to_bits());
                }
            }
            OpKind::Measure => self.write(2),
            OpKind::Reset => self.write(3),
            OpKind::Barrier => self.write(4),
            OpKind::PostSelect { outcome } => {
                self.write(5);
                self.write(u64::from(*outcome));
            }
        }
        self.write(instr.qubits().len() as u64);
        for q in instr.qubits() {
            self.write(q.index() as u64);
        }
        self.write(instr.clbits().len() as u64);
        for c in instr.clbits() {
            self.write(c.index() as u64);
        }
        match instr.condition() {
            Some(cond) => {
                self.write(6);
                self.write(cond.clbit.index() as u64);
                self.write(u64::from(cond.value));
            }
            None => self.write(7),
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write(s.len() as u64);
        for b in s.as_bytes() {
            self.write(u64::from(*b));
        }
    }

    fn finish(&self) -> u128 {
        (u128::from(self.lanes[1]) << 64) | u128::from(self.lanes[0])
    }
}

macro_rules! gate_method {
    ($(#[$doc:meta])* $name:ident, $gate:expr) => {
        impl QuantumCircuit {
            $(#[$doc])*
            ///
            /// # Errors
            ///
            /// Returns a [`CircuitError`] when the qubit is out of range.
            pub fn $name(&mut self, q: impl Into<QubitId>) -> Result<&mut Self, CircuitError> {
                self.gate($gate, [q.into()])
            }
        }
    };
    ($(#[$doc:meta])* $name:ident, param, $gate:path) => {
        impl QuantumCircuit {
            $(#[$doc])*
            ///
            /// # Errors
            ///
            /// Returns a [`CircuitError`] when the qubit is out of range.
            pub fn $name(
                &mut self,
                theta: f64,
                q: impl Into<QubitId>,
            ) -> Result<&mut Self, CircuitError> {
                self.gate($gate(theta), [q.into()])
            }
        }
    };
    ($(#[$doc:meta])* $name:ident, two, $gate:expr) => {
        impl QuantumCircuit {
            $(#[$doc])*
            ///
            /// # Errors
            ///
            /// Returns a [`CircuitError`] when an operand is out of range
            /// or the operands coincide.
            pub fn $name(
                &mut self,
                a: impl Into<QubitId>,
                b: impl Into<QubitId>,
            ) -> Result<&mut Self, CircuitError> {
                self.gate($gate, [a.into(), b.into()])
            }
        }
    };
}

gate_method!(
    /// Appends an identity gate.
    id,
    Gate::I
);
gate_method!(
    /// Appends a Pauli-X (NOT) gate.
    x,
    Gate::X
);
gate_method!(
    /// Appends a Pauli-Y gate.
    y,
    Gate::Y
);
gate_method!(
    /// Appends a Pauli-Z gate.
    z,
    Gate::Z
);
gate_method!(
    /// Appends a Hadamard gate.
    h,
    Gate::H
);
gate_method!(
    /// Appends an S (phase) gate.
    s,
    Gate::S
);
gate_method!(
    /// Appends an S† gate.
    sdg,
    Gate::Sdg
);
gate_method!(
    /// Appends a T gate.
    t,
    Gate::T
);
gate_method!(
    /// Appends a T† gate.
    tdg,
    Gate::Tdg
);
gate_method!(
    /// Appends a √X gate.
    sx,
    Gate::Sx
);
gate_method!(
    /// Appends a √X† gate.
    sxdg,
    Gate::Sxdg
);
gate_method!(
    /// Appends an X-rotation by `theta`.
    rx,
    param,
    Gate::Rx
);
gate_method!(
    /// Appends a Y-rotation by `theta`.
    ry,
    param,
    Gate::Ry
);
gate_method!(
    /// Appends a Z-rotation by `theta`.
    rz,
    param,
    Gate::Rz
);
gate_method!(
    /// Appends a phase gate `diag(1, e^{iθ})`.
    p,
    param,
    Gate::P
);
gate_method!(
    /// Appends a CNOT with `a` as control and `b` as target.
    cx,
    two,
    Gate::Cx
);
gate_method!(
    /// Appends a controlled-Y with `a` as control and `b` as target.
    cy,
    two,
    Gate::Cy
);
gate_method!(
    /// Appends a controlled-Z (symmetric).
    cz,
    two,
    Gate::Cz
);
gate_method!(
    /// Appends a controlled-Hadamard with `a` as control and `b` as
    /// target.
    ch,
    two,
    Gate::Ch
);
gate_method!(
    /// Appends a SWAP gate.
    swap,
    two,
    Gate::Swap
);

impl QuantumCircuit {
    /// Appends a general single-qubit unitary `U3(θ, φ, λ)`.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] when the qubit is out of range.
    pub fn u3(
        &mut self,
        theta: f64,
        phi: f64,
        lambda: f64,
        q: impl Into<QubitId>,
    ) -> Result<&mut Self, CircuitError> {
        self.gate(Gate::U3(theta, phi, lambda), [q.into()])
    }

    /// Appends a controlled-phase gate `diag(1,1,1,e^{iλ})`.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] when an operand is invalid.
    pub fn cp(
        &mut self,
        lambda: f64,
        a: impl Into<QubitId>,
        b: impl Into<QubitId>,
    ) -> Result<&mut Self, CircuitError> {
        self.gate(Gate::Cp(lambda), [a.into(), b.into()])
    }

    /// Appends a Toffoli gate with controls `a`, `b` and target `t`.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] when an operand is invalid.
    pub fn ccx(
        &mut self,
        a: impl Into<QubitId>,
        b: impl Into<QubitId>,
        t: impl Into<QubitId>,
    ) -> Result<&mut Self, CircuitError> {
        self.gate(Gate::Ccx, [a.into(), b.into(), t.into()])
    }

    /// Appends a Fredkin (controlled-SWAP) gate with control `c` swapping
    /// `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] when an operand is invalid.
    pub fn cswap(
        &mut self,
        c: impl Into<QubitId>,
        a: impl Into<QubitId>,
        b: impl Into<QubitId>,
    ) -> Result<&mut Self, CircuitError> {
        self.gate(Gate::Cswap, [c.into(), a.into(), b.into()])
    }
}

impl fmt::Display for QuantumCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (qubits: {}, clbits: {}, ops: {})",
            self.name,
            self.num_qubits,
            self.num_clbits,
            self.instructions.len()
        )?;
        for instr in &self.instructions {
            writeln!(f, "  {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> QuantumCircuit {
        let mut c = QuantumCircuit::new(2, 2);
        c.h(0).unwrap().cx(0, 1).unwrap();
        c
    }

    #[test]
    fn new_circuit_is_empty() {
        let c = QuantumCircuit::new(3, 1);
        assert!(c.is_empty());
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.num_clbits(), 1);
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn structural_hash_is_stable_and_name_blind() {
        let a = bell();
        let mut b = bell();
        b.set_name("renamed");
        assert_eq!(a.structural_hash(), b.structural_hash());
        assert_eq!(a.structural_hash(), a.structural_hash());
    }

    #[test]
    fn structural_hash_separates_distinct_circuits() {
        let base = bell();
        let mut wider = QuantumCircuit::new(3, 2);
        wider.h(0).unwrap().cx(0, 1).unwrap();
        let mut reordered = QuantumCircuit::new(2, 2);
        reordered.cx(0, 1).unwrap().h(0).unwrap();
        let mut param_a = QuantumCircuit::new(1, 0);
        param_a.rx(0.5, 0).unwrap();
        let mut param_b = QuantumCircuit::new(1, 0);
        param_b.rx(0.5 + 1e-15, 0).unwrap();
        let mut conditioned = bell();
        conditioned.gate_if(Gate::X, [0usize], 0, true).unwrap();
        let mut unconditioned = bell();
        unconditioned.x(0).unwrap();
        let hashes = [
            base.structural_hash(),
            wider.structural_hash(),
            reordered.structural_hash(),
            param_a.structural_hash(),
            param_b.structural_hash(),
            conditioned.structural_hash(),
            unconditioned.structural_hash(),
        ];
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b, "distinct circuits collided");
            }
        }
    }

    #[test]
    fn prefix_hashes_satisfy_the_prefix_property() {
        let mut prefix = QuantumCircuit::new(3, 0);
        prefix.ry(0.7, 0).unwrap().ry(0.8, 1).unwrap();
        let mut full = prefix.clone();
        full.cx(0, 2).unwrap().cx(1, 2).unwrap();
        let ph = prefix.prefix_hashes();
        let fh = full.prefix_hashes();
        assert_eq!(ph.len(), prefix.len() + 1);
        assert_eq!(fh.len(), full.len() + 1);
        // Shared prefix ⇒ shared chain values, diverging afterwards.
        assert_eq!(&ph[..], &fh[..ph.len()]);
        assert_ne!(fh[2], fh[3]);
        // Register widths do NOT participate: instrumented families grow
        // ancilla wires while their streams keep extending each other.
        let mut wider = QuantumCircuit::new(4, 1);
        wider.ry(0.7, 0).unwrap().ry(0.8, 1).unwrap();
        assert_eq!(wider.prefix_hashes()[2], ph[2]);
        // Different parameters diverge at the instruction that differs.
        let mut other = QuantumCircuit::new(3, 0);
        other.ry(0.7, 0).unwrap().ry(0.9, 1).unwrap();
        let oh = other.prefix_hashes();
        assert_eq!(oh[1], ph[1]);
        assert_ne!(oh[2], ph[2]);
    }

    /// The program cache keys on these values, so a change to the hash's
    /// evaluation order must leave every one of them unchanged.
    #[test]
    fn structural_hash_values_are_pinned() {
        let mut gated = QuantumCircuit::new(2, 1);
        gated
            .rx(0.25, 0)
            .unwrap()
            .u3(0.1, -0.2, 0.3, 1)
            .unwrap()
            .measure(0, 0)
            .unwrap()
            .gate_if(Gate::X, [1usize], 0, true)
            .unwrap();
        // The shape instrumentation emits for a parity assertion: the
        // ancilla (qubit 2) collects both data parities, is measured
        // mid-circuit and reset, and the data are measured at the end.
        let mut instrumented = QuantumCircuit::new(3, 3);
        instrumented
            .h(0)
            .unwrap()
            .cx(0, 1)
            .unwrap()
            .cx(0, 2)
            .unwrap()
            .cx(1, 2)
            .unwrap()
            .measure(2, 2)
            .unwrap()
            .reset(2)
            .unwrap()
            .t(1)
            .unwrap()
            .measure(0, 0)
            .unwrap()
            .measure(1, 1)
            .unwrap();
        let pinned = [
            (
                crate::library::bell(),
                0xac4e_18d3_3f7f_7a6c_d21b_9d15_78fd_c0ba_u128,
                0xa335_97dc_8548_dc4f_dc09_cf65_1083_db37_u128,
            ),
            (
                gated,
                0x55ef_30ab_9433_cdc5_0802_e523_4fcc_4bc0,
                0x5840_13e8_f940_eedb_911f_29bd_b32e_3d02,
            ),
            (
                instrumented,
                0xda0f_7da5_8d25_eb58_bd0d_b06b_f863_7601,
                0x8556_8158_3bd3_8a36_05f5_35c0_6981_873c,
            ),
        ];
        for (circuit, whole, prefix) in pinned {
            assert_eq!(circuit.structural_hash(), whole);
            assert_eq!(circuit.prefix_hashes().last(), Some(&prefix));
        }
    }

    #[test]
    fn structural_hash_distinguishes_operand_order() {
        let mut ab = QuantumCircuit::new(2, 0);
        ab.cx(0, 1).unwrap();
        let mut ba = QuantumCircuit::new(2, 0);
        ba.cx(1, 0).unwrap();
        assert_ne!(ab.structural_hash(), ba.structural_hash());
    }

    #[test]
    fn builder_chains() {
        let mut c = QuantumCircuit::new(2, 2);
        c.h(0)
            .unwrap()
            .cx(0, 1)
            .unwrap()
            .measure(0, 0)
            .unwrap()
            .measure(1, 1)
            .unwrap();
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn qubit_out_of_range_is_rejected() {
        let mut c = QuantumCircuit::new(1, 0);
        assert_eq!(
            c.h(1).unwrap_err(),
            CircuitError::QubitOutOfRange {
                qubit: 1,
                num_qubits: 1
            }
        );
    }

    #[test]
    fn clbit_out_of_range_is_rejected() {
        let mut c = QuantumCircuit::new(1, 0);
        assert_eq!(
            c.measure(0, 0).unwrap_err(),
            CircuitError::ClbitOutOfRange {
                clbit: 0,
                num_clbits: 0
            }
        );
    }

    #[test]
    fn duplicate_qubits_are_rejected() {
        let mut c = QuantumCircuit::new(2, 0);
        assert_eq!(
            c.cx(1, 1).unwrap_err(),
            CircuitError::DuplicateQubit { qubit: 1 }
        );
    }

    #[test]
    fn arity_is_checked() {
        let mut c = QuantumCircuit::new(3, 0);
        let err = c.gate(Gate::Cx, [0, 1, 2]).unwrap_err();
        assert_eq!(
            err,
            CircuitError::ArityMismatch {
                gate: "cx",
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn conditions_only_on_gates_and_resets() {
        let mut c = QuantumCircuit::new(1, 1);
        let cond = Condition {
            clbit: ClbitId::new(0),
            value: true,
        };
        let err = c
            .append(Instruction::measure(0, 0).with_condition(cond))
            .unwrap_err();
        assert_eq!(err, CircuitError::UnsupportedCondition { op: "measure" });
        assert!(c.gate_if(Gate::X, [0], 0, true).is_ok());
    }

    #[test]
    fn condition_clbit_is_validated() {
        let mut c = QuantumCircuit::new(1, 1);
        let err = c.gate_if(Gate::X, [0], 5, true).unwrap_err();
        assert_eq!(
            err,
            CircuitError::ClbitOutOfRange {
                clbit: 5,
                num_clbits: 1
            }
        );
    }

    #[test]
    fn add_wires_extends_capacity() {
        let mut c = QuantumCircuit::new(1, 0);
        let anc = c.add_qubit();
        assert_eq!(anc.index(), 1);
        assert!(c.cx(0, anc).is_ok());
        let cb = c.add_clbit();
        assert!(c.measure(anc, cb).is_ok());
    }

    #[test]
    fn measure_all_grows_classical_register() {
        let mut c = QuantumCircuit::new(3, 0);
        c.measure_all();
        assert_eq!(c.num_clbits(), 3);
        assert_eq!(c.measurement_count(), 3);
    }

    #[test]
    fn depth_counts_longest_chain() {
        let mut c = bell(); // h(0); cx(0,1) — depth 2
        assert_eq!(c.depth(), 2);
        c.x(1).unwrap(); // extends qubit 1's chain: depth 3
        assert_eq!(c.depth(), 3);
        c.x(0).unwrap(); // parallel with the previous x: still 3
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn barriers_do_not_add_depth_but_synchronize() {
        let mut c = QuantumCircuit::new(2, 0);
        c.h(0).unwrap();
        c.barrier_all();
        c.x(1).unwrap();
        // x(1) must come after the barrier, which waits on h(0): depth 2.
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn count_ops_histograms_names() {
        let mut c = bell();
        c.h(1).unwrap();
        let counts = c.count_ops();
        assert_eq!(counts["h"], 2);
        assert_eq!(counts["cx"], 1);
    }

    #[test]
    fn multi_qubit_gate_count_ignores_single_qubit_gates() {
        let mut c = bell();
        c.ccx(0, 1, 1).unwrap_err(); // duplicate, not appended
        assert_eq!(c.multi_qubit_gate_count(), 1);
    }

    #[test]
    fn compose_remaps_wires() {
        let mut host = QuantumCircuit::new(3, 2);
        let frag = bell();
        host.compose(
            &frag,
            &[QubitId::new(2), QubitId::new(0)],
            &[ClbitId::new(0), ClbitId::new(1)],
        )
        .unwrap();
        assert_eq!(host.len(), 2);
        assert_eq!(host.instructions()[0].qubits(), &[QubitId::new(2)]);
        assert_eq!(
            host.instructions()[1].qubits(),
            &[QubitId::new(2), QubitId::new(0)]
        );
    }

    #[test]
    fn compose_validates_mapping_sizes() {
        let mut host = QuantumCircuit::new(2, 0);
        let frag = bell();
        let err = host.compose(&frag, &[QubitId::new(0)], &[]).unwrap_err();
        assert!(matches!(
            err,
            CircuitError::MappingSizeMismatch {
                wire_kind: "qubit",
                ..
            }
        ));
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = QuantumCircuit::new(1, 0);
        c.h(0).unwrap().s(0).unwrap();
        let inv = c.inverse().unwrap();
        assert_eq!(inv.instructions()[0].as_gate(), Some(&Gate::Sdg));
        assert_eq!(inv.instructions()[1].as_gate(), Some(&Gate::H));
    }

    #[test]
    fn inverse_rejects_measurement() {
        let mut c = QuantumCircuit::new(1, 1);
        c.h(0).unwrap().measure(0, 0).unwrap();
        assert_eq!(
            c.inverse().unwrap_err(),
            CircuitError::NotInvertible { op: "measure" }
        );
    }

    #[test]
    fn without_final_measurements_strips_suffix_only() {
        let mut c = QuantumCircuit::new(2, 2);
        c.measure(0, 0).unwrap(); // mid-circuit measurement stays
        c.h(0).unwrap();
        c.measure(0, 0).unwrap();
        c.measure(1, 1).unwrap();
        let trimmed = c.without_final_measurements();
        assert_eq!(trimmed.len(), 2);
        assert_eq!(trimmed.measurement_count(), 1);
    }

    #[test]
    fn has_nonunitary_ops_detection() {
        let mut c = bell();
        assert!(!c.has_nonunitary_ops());
        c.barrier_all();
        assert!(!c.has_nonunitary_ops());
        c.post_select(0, false).unwrap();
        assert!(c.has_nonunitary_ops());
    }

    #[test]
    fn display_lists_instructions() {
        let c = bell();
        let s = c.to_string();
        assert!(s.contains("h q0"));
        assert!(s.contains("cx q0, q1"));
    }

    #[test]
    fn all_parameterized_helpers_apply() {
        let mut c = QuantumCircuit::new(3, 0);
        c.rx(0.1, 0)
            .unwrap()
            .ry(0.2, 0)
            .unwrap()
            .rz(0.3, 1)
            .unwrap()
            .p(0.4, 1)
            .unwrap()
            .u3(0.1, 0.2, 0.3, 2)
            .unwrap()
            .cp(0.5, 0, 1)
            .unwrap()
            .cswap(0, 1, 2)
            .unwrap();
        assert_eq!(c.len(), 7);
    }
}
