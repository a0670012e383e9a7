//! ASCII circuit rendering.
//!
//! [`render`] draws a circuit as text, one row per qubit, and each
//! instruction one column past the deepest earlier instruction it shares
//! a qubit, a clbit or its condition bit with — handy in examples and
//! failing-test output:
//!
//! ```text
//! q0: ──H───●───M0──
//!           │
//! q1: ──────X───M1──
//! ```

use crate::circuit::QuantumCircuit;
use crate::gate::Gate;
use crate::instruction::{Instruction, OpKind};

/// Renders the circuit as a multi-line ASCII diagram.
///
/// # Example
///
/// ```
/// use qcircuit::{QuantumCircuit, display::render};
/// # fn main() -> Result<(), qcircuit::CircuitError> {
/// let mut c = QuantumCircuit::new(2, 0);
/// c.h(0)?.cx(0, 1)?;
/// let art = render(&c);
/// assert!(art.contains("q0:"));
/// assert!(art.contains("H"));
/// # Ok(())
/// # }
/// ```
pub fn render(circuit: &QuantumCircuit) -> String {
    let n = circuit.num_qubits();
    if n == 0 {
        return String::from("(no qubits)\n");
    }
    // Each instruction's column is one past the deepest earlier one that
    // shares a wire with it (a qubit, a clbit or its condition bit): the
    // latest next free column among its wires. Clbit `c` is wire `n + c`.
    let mut next_free = vec![0usize; n + circuit.num_clbits()];
    let mut layers: Vec<Vec<&Instruction>> = Vec::new();
    for instr in circuit.instructions() {
        let clbits = instr.clbits().iter().copied();
        let clbits = clbits.chain(instr.condition().map(|c| c.clbit));
        let wires: Vec<usize> = (instr.qubits().iter().map(|q| q.index()))
            .chain(clbits.map(|c| n + c.index()))
            .collect();
        let column = wires.iter().map(|&w| next_free[w]).max().unwrap_or(0);
        for &w in &wires {
            next_free[w] = column + 1;
        }
        if column == layers.len() {
            layers.push(Vec::new());
        }
        layers[column].push(instr);
    }

    // Grid rows: qubit rows at even indices, connector rows between them.
    let rows = 2 * n - 1;
    let mut grid: Vec<String> = vec![String::new(); rows];
    let labels: Vec<String> = (0..n).map(|q| format!("q{q}: ")).collect();
    let label_w = labels.iter().map(|l| l.len()).max().unwrap_or(0);
    for (q, row) in grid.iter_mut().enumerate().filter(|(i, _)| i % 2 == 0) {
        let lbl = &labels[q / 2];
        row.push_str(lbl);
        for _ in lbl.len()..label_w {
            row.push(' ');
        }
    }
    for row in grid.iter_mut().skip(1).step_by(2) {
        for _ in 0..label_w {
            row.push(' ');
        }
    }

    for layer in &layers {
        // Cell text for each qubit row in this column.
        let mut cells: Vec<Option<String>> = vec![None; n];
        let mut connect: Vec<bool> = vec![false; rows]; // vertical bars on connector rows
        for instr in layer {
            place_instruction(instr, &mut cells, &mut connect);
        }
        let width = cells
            .iter()
            .flatten()
            .map(|s| s.chars().count())
            .max()
            .unwrap_or(1)
            + 2;
        for (r, row) in grid.iter_mut().enumerate() {
            if r % 2 == 0 {
                let q = r / 2;
                let text = cells[q].clone().unwrap_or_default();
                let tlen = text.chars().count();
                let left = (width - tlen) / 2;
                for _ in 0..left {
                    row.push('─');
                }
                row.push_str(&text);
                for _ in 0..(width - tlen - left) {
                    row.push('─');
                }
            } else {
                let bar = connect[r];
                let fill = if bar { '│' } else { ' ' };
                let left = (width - 1) / 2;
                for _ in 0..left {
                    row.push(' ');
                }
                row.push(fill);
                for _ in 0..(width - 1 - left) {
                    row.push(' ');
                }
            }
        }
    }

    let mut out = String::new();
    for row in grid {
        out.push_str(row.trim_end());
        out.push('\n');
    }
    out
}

/// Fills in the per-qubit cell text and connector bars for one
/// instruction.
fn place_instruction(instr: &Instruction, cells: &mut [Option<String>], connect: &mut [bool]) {
    let qs = instr.qubits();
    let suffix = instr
        .condition()
        .map(|c| format!("?{}={}", c.clbit, u8::from(c.value)))
        .unwrap_or_default();

    let mut set = |q: usize, text: String| {
        cells[q] = Some(text);
    };

    match instr.kind() {
        OpKind::Gate(g) => match g {
            Gate::Cx => {
                set(qs[0].index(), format!("●{suffix}"));
                set(qs[1].index(), "⊕".to_string());
            }
            Gate::Cz => {
                set(qs[0].index(), format!("●{suffix}"));
                set(qs[1].index(), "●".to_string());
            }
            Gate::Cy | Gate::Ch | Gate::Cp(_) => {
                set(qs[0].index(), format!("●{suffix}"));
                let t = match g {
                    Gate::Cy => "Y".to_string(),
                    Gate::Ch => "H".to_string(),
                    Gate::Cp(l) => format!("P({l:.2})"),
                    _ => unreachable!(),
                };
                set(qs[1].index(), t);
            }
            Gate::Swap => {
                set(qs[0].index(), format!("✕{suffix}"));
                set(qs[1].index(), "✕".to_string());
            }
            Gate::Ccx => {
                set(qs[0].index(), format!("●{suffix}"));
                set(qs[1].index(), "●".to_string());
                set(qs[2].index(), "⊕".to_string());
            }
            Gate::Cswap => {
                set(qs[0].index(), format!("●{suffix}"));
                set(qs[1].index(), "✕".to_string());
                set(qs[2].index(), "✕".to_string());
            }
            g1 => {
                let label = match g1 {
                    Gate::Rx(t) => format!("RX({t:.2})"),
                    Gate::Ry(t) => format!("RY({t:.2})"),
                    Gate::Rz(t) => format!("RZ({t:.2})"),
                    Gate::P(t) => format!("P({t:.2})"),
                    Gate::U3(t, p, l) => format!("U3({t:.2},{p:.2},{l:.2})"),
                    other => other.name().to_uppercase(),
                };
                set(qs[0].index(), format!("{label}{suffix}"));
            }
        },
        OpKind::Measure => {
            let c = instr.clbits()[0];
            set(qs[0].index(), format!("M{}", c.index()));
        }
        OpKind::Reset => set(qs[0].index(), "|0⟩".to_string()),
        OpKind::Barrier => {
            for q in qs {
                set(q.index(), "░".to_string());
            }
        }
        OpKind::PostSelect { outcome } => {
            set(qs[0].index(), format!("PS={}", u8::from(*outcome)));
        }
    }

    // Draw vertical connectors across the span of a multi-qubit gate.
    if qs.len() >= 2 && !matches!(instr.kind(), OpKind::Barrier) {
        let lo = qs.iter().map(|q| q.index()).min().expect("nonempty");
        let hi = qs.iter().map(|q| q.index()).max().expect("nonempty");
        for r in (2 * lo + 1)..(2 * hi) {
            connect[r] = true;
            // Qubit rows crossed by the connector but not involved get a
            // bar cell too.
            if r % 2 == 0 && cells[r / 2].is_none() {
                cells[r / 2] = Some("│".to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_bell_pair() {
        let mut c = QuantumCircuit::new(2, 2);
        c.h(0)
            .unwrap()
            .cx(0, 1)
            .unwrap()
            .measure(0, 0)
            .unwrap()
            .measure(1, 1)
            .unwrap();
        let art = render(&c);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("q0: "));
        assert!(lines[0].contains('H'));
        assert!(lines[0].contains('●'));
        assert!(lines[0].contains("M0"));
        assert!(lines[1].contains('│'));
        assert!(lines[2].contains('⊕'));
        assert!(lines[2].contains("M1"));
    }

    #[test]
    fn renders_parallel_gates_in_one_column() {
        let mut c = QuantumCircuit::new(2, 0);
        c.h(0).unwrap().h(1).unwrap();
        let art = render(&c);
        // Both H's occupy the same column, so both rows have equal length.
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines[0].chars().count(), lines[2].chars().count());
    }

    #[test]
    fn connector_crosses_intermediate_qubit() {
        let mut c = QuantumCircuit::new(3, 0);
        c.cx(0, 2).unwrap();
        let art = render(&c);
        let lines: Vec<&str> = art.lines().collect();
        // Row of q1 (line index 2) is crossed by the connector.
        assert!(lines[2].contains('│'));
    }

    #[test]
    fn renders_empty_circuit() {
        let c = QuantumCircuit::new(1, 0);
        let art = render(&c);
        assert!(art.starts_with("q0:"));
    }

    #[test]
    fn renders_condition_marker() {
        let mut c = QuantumCircuit::new(1, 1);
        c.gate_if(Gate::X, [0], 0, true).unwrap();
        let art = render(&c);
        assert!(art.contains("?c0=1"));
    }

    #[test]
    fn renders_post_select_and_reset() {
        let mut c = QuantumCircuit::new(1, 0);
        c.post_select(0, false).unwrap().reset(0).unwrap();
        let art = render(&c);
        assert!(art.contains("PS=0"));
        assert!(art.contains("|0⟩"));
    }

    #[test]
    fn columns_follow_wire_dependencies() {
        // Each instruction sits one column past the deepest earlier one
        // it shares a qubit with: X beside H, the second CX after both.
        let mut c = QuantumCircuit::new(3, 1);
        c.h(0).unwrap().cx(0, 1).unwrap().x(2).unwrap();
        c.cx(1, 2).unwrap().measure(2, 0).unwrap();
        let expected = "\
q0: ─H──●────────
        │
q1: ────⊕──●─────
           │
q2: ─X─────⊕──M0─
";
        assert_eq!(render(&c), expected);
    }

    #[test]
    fn clbits_and_condition_bits_order_columns() {
        // The conditioned X waits for the measure writing its bit, and
        // the second measure into that bit waits for both.
        let mut c = QuantumCircuit::new(3, 1);
        c.measure(0, 0).unwrap();
        c.gate_if(Gate::X, [1], 0, true).unwrap();
        c.measure(2, 0).unwrap();
        let expected = "\
q0: ─M0─────────────

q1: ─────X?c0=1─────

q2: ─────────────M0─
";
        assert_eq!(render(&c), expected);
    }

    #[test]
    fn zero_qubit_circuit_is_handled() {
        let c = QuantumCircuit::new(0, 0);
        assert_eq!(render(&c), "(no qubits)\n");
    }
}
