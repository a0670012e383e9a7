//! OpenQASM 2.0 export and import.
//!
//! The exporter targets the `qelib1.inc` gate vocabulary; the importer
//! accepts the same subset plus common aliases (`p`/`u1`, `cp`/`cu1`,
//! `u`/`u3`). Post-selection — which has no QASM representation — round
//! trips through a `// pragma qassert post_select` comment.
//!
//! Classically-conditioned gates are exported by declaring one
//! single-bit classical register per circuit clbit (`creg c3[1];`), since
//! OpenQASM 2 conditions apply to whole registers.
//!
//! Parse failures are always a typed [`QasmError`] carrying a
//! [`Span`] (1-based line and column of the offending token), never a
//! panic — services that accept QASM over the wire turn them into
//! structured 400 bodies.

use crate::circuit::QuantumCircuit;
use crate::error::CircuitError;
use crate::gate::Gate;
use crate::instruction::{Condition, Instruction, OpKind};
use crate::register::{ClbitId, QubitId};
use std::fmt;

/// A source location: 1-based line and 1-based byte column.
///
/// Columns count bytes from the start of the line (identical to
/// character columns for the ASCII sources OpenQASM 2.0 programs are in
/// practice).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Line number (1-based).
    pub line: usize,
    /// Byte column within the line (1-based).
    pub col: usize,
}

impl Span {
    /// A span at `line:col`.
    pub fn new(line: usize, col: usize) -> Self {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}", self.line, self.col)
    }
}

/// The span of `token` given the span of the `parent` slice that
/// contains it (`token` must be a subslice of `parent`).
fn sub_span(parent: &str, token: &str, parent_span: Span) -> Span {
    let rel = (token.as_ptr() as usize).saturating_sub(parent.as_ptr() as usize);
    Span {
        line: parent_span.line,
        col: parent_span.col + rel,
    }
}

/// Error produced while parsing OpenQASM source.
#[derive(Clone, Debug, PartialEq)]
pub enum QasmError {
    /// The source is missing the `OPENQASM 2.0;` header.
    MissingHeader,
    /// A statement could not be parsed.
    Malformed {
        /// Location of the offending statement or token.
        span: Span,
        /// Description of the problem.
        reason: String,
    },
    /// A gate name is not in the supported vocabulary.
    UnknownGate {
        /// Location of the gate name.
        span: Span,
        /// The unrecognized name.
        name: String,
    },
    /// A register reference was not declared.
    UnknownRegister {
        /// Location of the register reference.
        span: Span,
        /// The unrecognized register name.
        name: String,
    },
    /// The parsed program failed circuit validation.
    Invalid(CircuitError),
}

impl QasmError {
    /// The source location of the failure, when it has one
    /// ([`QasmError::MissingHeader`] and [`QasmError::Invalid`] are
    /// whole-program conditions).
    pub fn span(&self) -> Option<Span> {
        match self {
            QasmError::Malformed { span, .. }
            | QasmError::UnknownGate { span, .. }
            | QasmError::UnknownRegister { span, .. } => Some(*span),
            QasmError::MissingHeader | QasmError::Invalid(_) => None,
        }
    }
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QasmError::MissingHeader => write!(f, "missing OPENQASM 2.0 header"),
            QasmError::Malformed { span, reason } => {
                write!(f, "malformed statement at {span}: {reason}")
            }
            QasmError::UnknownGate { span, name } => {
                write!(f, "unknown gate '{name}' at {span}")
            }
            QasmError::UnknownRegister { span, name } => {
                write!(f, "unknown register '{name}' at {span}")
            }
            QasmError::Invalid(e) => write!(f, "invalid circuit: {e}"),
        }
    }
}

impl std::error::Error for QasmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QasmError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for QasmError {
    fn from(e: CircuitError) -> Self {
        QasmError::Invalid(e)
    }
}

/// Serializes a circuit to OpenQASM 2.0 source.
///
/// # Example
///
/// ```
/// use qcircuit::{QuantumCircuit, qasm};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut c = QuantumCircuit::new(2, 2);
/// c.h(0)?.cx(0, 1)?.measure(0, 0)?;
/// let src = qasm::to_qasm(&c);
/// assert!(src.contains("cx q[0],q[1];"));
/// let back = qasm::from_qasm(&src)?;
/// assert_eq!(back.len(), c.len());
/// # Ok(())
/// # }
/// ```
pub fn to_qasm(circuit: &QuantumCircuit) -> String {
    let mut out = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let per_bit_cregs = circuit
        .instructions()
        .iter()
        .any(|i| i.condition().is_some());
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits().max(1)));
    if per_bit_cregs {
        for c in 0..circuit.num_clbits() {
            out.push_str(&format!("creg c{c}[1];\n"));
        }
    } else if circuit.num_clbits() > 0 {
        out.push_str(&format!("creg c[{}];\n", circuit.num_clbits()));
    }

    let clbit = |c: ClbitId| {
        if per_bit_cregs {
            format!("c{}[0]", c.index())
        } else {
            format!("c[{}]", c.index())
        }
    };

    for instr in circuit.instructions() {
        if let Some(cond) = instr.condition() {
            out.push_str(&format!(
                "if(c{}=={}) ",
                cond.clbit.index(),
                u8::from(cond.value)
            ));
        }
        match instr.kind() {
            OpKind::Gate(g) => {
                let name = match g {
                    Gate::P(_) => "u1",
                    Gate::Cp(_) => "cu1",
                    other => other.name(),
                };
                let params = g.params();
                if params.is_empty() {
                    out.push_str(name);
                } else {
                    let rendered: Vec<String> = params.iter().map(|p| format!("{p:.17}")).collect();
                    out.push_str(&format!("{name}({})", rendered.join(",")));
                }
                let qs: Vec<String> = instr
                    .qubits()
                    .iter()
                    .map(|q| format!("q[{}]", q.index()))
                    .collect();
                out.push_str(&format!(" {};\n", qs.join(",")));
            }
            OpKind::Measure => {
                out.push_str(&format!(
                    "measure q[{}] -> {};\n",
                    instr.qubits()[0].index(),
                    clbit(instr.clbits()[0])
                ));
            }
            OpKind::Reset => {
                out.push_str(&format!("reset q[{}];\n", instr.qubits()[0].index()));
            }
            OpKind::Barrier => {
                let qs: Vec<String> = instr
                    .qubits()
                    .iter()
                    .map(|q| format!("q[{}]", q.index()))
                    .collect();
                out.push_str(&format!("barrier {};\n", qs.join(",")));
            }
            OpKind::PostSelect { outcome } => {
                out.push_str(&format!(
                    "// pragma qassert post_select q[{}] {}\n",
                    instr.qubits()[0].index(),
                    u8::from(*outcome)
                ));
            }
        }
    }
    out
}

/// A declared register: name and flat offset into the circuit's wires.
struct Register {
    name: String,
    offset: usize,
    size: usize,
}

/// One body statement awaiting the second parse pass.
enum Stmt {
    /// A `// pragma qassert …` directive (the pragma text, prefix
    /// stripped).
    Pragma(String),
    /// An ordinary `;`-terminated statement.
    Code(String),
}

/// Parses OpenQASM 2.0 source into a circuit.
///
/// Supports the statement subset produced by [`to_qasm`]: register
/// declarations, the qelib1 gates used by this workspace, `measure`
/// (one bit, or a whole register into an equally wide one), `reset`,
/// `barrier`, `if(c==v)` conditions on gates and `reset` where
/// `c` is a 1-bit register and `v` is 0 or 1, and the `post_select`
/// pragma.
///
/// # Errors
///
/// Returns a [`QasmError`] describing the first offending statement,
/// with the [`Span`] (line and column) of the token that broke. Never
/// panics on malformed input.
pub fn from_qasm(source: &str) -> Result<QuantumCircuit, QasmError> {
    let mut qregs: Vec<Register> = Vec::new();
    let mut cregs: Vec<Register> = Vec::new();
    let mut num_qubits = 0usize;
    let mut num_clbits = 0usize;
    let mut stream: Vec<(Span, Stmt)> = Vec::new();
    let mut saw_header = false;

    for (lineno, raw) in source.lines().enumerate() {
        let lineno = lineno + 1;
        let line_span = |token: &str| sub_span(raw, token, Span::new(lineno, 1));
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("// pragma qassert ") {
            stream.push((line_span(rest), Stmt::Pragma(rest.to_string())));
            continue;
        }
        let line = match line.find("//") {
            Some(pos) => line[..pos].trim(),
            None => line,
        };
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            let span = line_span(stmt);
            if stmt.starts_with("OPENQASM") {
                saw_header = true;
            } else if stmt.starts_with("include") {
                // qelib1.inc is implied.
            } else if let Some(rest) = strip_keyword(stmt, "qreg") {
                let (name, size) = parse_reg_decl(rest, line_span(rest))?;
                qregs.push(Register {
                    name,
                    offset: num_qubits,
                    size,
                });
                num_qubits = grow_width(num_qubits, size, "qubits", span)?;
            } else if let Some(rest) = strip_keyword(stmt, "creg") {
                let (name, size) = parse_reg_decl(rest, line_span(rest))?;
                cregs.push(Register {
                    name,
                    offset: num_clbits,
                    size,
                });
                num_clbits = grow_width(num_clbits, size, "clbits", span)?;
            } else {
                stream.push((span, Stmt::Code(stmt.to_string())));
            }
        }
    }
    if !saw_header {
        return Err(QasmError::MissingHeader);
    }

    let mut circuit = QuantumCircuit::new(num_qubits, num_clbits);

    for (span, stmt) in stream {
        match stmt {
            Stmt::Pragma(p) => {
                // post_select q[i] v
                let parts: Vec<&str> = p.split_whitespace().collect();
                if parts.len() != 3 || parts[0] != "post_select" {
                    return Err(QasmError::Malformed {
                        span,
                        reason: format!("unrecognized pragma '{p}'"),
                    });
                }
                let operand_span = sub_span(&p, parts[1], span);
                let (name, idx) = parse_indexed(parts[1], operand_span)?;
                let q = QubitId::from(lookup(&qregs, &name, idx, operand_span)?);
                let outcome = parts[2] == "1";
                circuit.append(Instruction::post_select(q, outcome))?;
            }
            Stmt::Code(stmt) => {
                parse_code_statement(&stmt, span, &mut circuit, &qregs, &cregs)?;
            }
        }
    }

    Ok(circuit)
}

/// Resolves register `name` among `regs`.
fn find_register<'r>(
    regs: &'r [Register],
    name: &str,
    span: Span,
) -> Result<&'r Register, QasmError> {
    regs.iter()
        .find(|r| r.name == name)
        .ok_or_else(|| QasmError::UnknownRegister {
            span,
            name: name.to_string(),
        })
}

/// Resolves `name[idx]` among `regs` to its flat wire index.
fn lookup(regs: &[Register], name: &str, idx: usize, span: Span) -> Result<usize, QasmError> {
    let reg = find_register(regs, name, span)?;
    if idx >= reg.size {
        return Err(QasmError::Malformed {
            span,
            reason: format!("index {idx} out of range for register {name}[{}]", reg.size),
        });
    }
    Ok(reg.offset + idx)
}

/// Parses one non-pragma body statement (gate application, `measure`,
/// `reset` or `barrier`; a gate or `reset` may sit behind an `if(c==v)`
/// condition) and appends it to `circuit`.
fn parse_code_statement(
    stmt: &str,
    span: Span,
    circuit: &mut QuantumCircuit,
    qregs: &[Register],
    cregs: &[Register],
) -> Result<(), QasmError> {
    let whole = stmt;
    let token_span = |token: &str| sub_span(whole, token, span);
    let lookup_q =
        |name: &str, idx: usize, span: Span| lookup(qregs, name, idx, span).map(QubitId::from);
    let lookup_c =
        |name: &str, idx: usize, span: Span| lookup(cregs, name, idx, span).map(ClbitId::from);

    let (stmt, condition) = if let Some(rest) = stmt.strip_prefix("if(") {
        let close = rest.find(')').ok_or_else(|| QasmError::Malformed {
            span,
            reason: "unterminated if(...)".to_string(),
        })?;
        let cond_src = &rest[..close];
        let tail = rest[close + 1..].trim();
        let eq = cond_src.find("==").ok_or_else(|| QasmError::Malformed {
            span: token_span(cond_src),
            reason: "condition must use ==".to_string(),
        })?;
        let reg_name = cond_src[..eq].trim();
        let value_src = cond_src[eq + 2..].trim();
        let value: u64 = value_src.parse().map_err(|_| QasmError::Malformed {
            span: token_span(value_src),
            reason: "condition value must be an integer".to_string(),
        })?;
        // OpenQASM 2.0 compares the whole register with `v`; a circuit
        // condition tests one clbit, so only a 1-bit register maps onto
        // it exactly.
        let reg = find_register(cregs, reg_name, token_span(reg_name))?;
        if reg.size != 1 {
            return Err(QasmError::Malformed {
                span: token_span(reg_name),
                reason: format!(
                    "condition register {reg_name}[{}] must be 1 bit wide",
                    reg.size
                ),
            });
        }
        if value > 1 {
            return Err(QasmError::Malformed {
                span: token_span(value_src),
                reason: format!("a 1-bit register never equals {value}"),
            });
        }
        (
            tail,
            Some(Condition {
                clbit: ClbitId::from(reg.offset),
                value: value == 1,
            }),
        )
    } else {
        (stmt, None)
    };
    let span = token_span(stmt);
    if condition.is_some()
        && (strip_keyword(stmt, "measure").is_some() || strip_keyword(stmt, "barrier").is_some())
    {
        return Err(QasmError::Malformed {
            span,
            reason: "only gates and reset can be conditioned".to_string(),
        });
    }

    if let Some(rest) = strip_keyword(stmt, "measure") {
        let arrow = rest.find("->").ok_or_else(|| QasmError::Malformed {
            span,
            reason: "measure requires '->'".to_string(),
        })?;
        let q_src = rest[..arrow].trim();
        let c_src = rest[arrow + 2..].trim();
        let (q_span, c_span) = (token_span(q_src), token_span(c_src));
        match (is_name(q_src), is_name(c_src)) {
            // `measure q -> c;` measures `q[i]` into `c[i]` for every `i`.
            (true, true) => {
                let qreg = find_register(qregs, q_src, q_span)?;
                let creg = find_register(cregs, c_src, c_span)?;
                if qreg.size != creg.size {
                    return Err(QasmError::Malformed {
                        span: c_span,
                        reason: format!(
                            "measure {q_src} -> {c_src} needs registers of equal width, \
                             got {} and {}",
                            qreg.size, creg.size
                        ),
                    });
                }
                for i in 0..qreg.size {
                    circuit.append(Instruction::measure(
                        QubitId::from(qreg.offset + i),
                        ClbitId::from(creg.offset + i),
                    ))?;
                }
            }
            (false, false) => {
                let (qname, qidx) = parse_indexed(q_src, q_span)?;
                let (cname, cidx) = parse_indexed(c_src, c_span)?;
                circuit.append(Instruction::measure(
                    lookup_q(&qname, qidx, q_span)?,
                    lookup_c(&cname, cidx, c_span)?,
                ))?;
            }
            // A whole register against one bit: report at the register.
            (q_bare, _) => {
                let (q_width, c_width, span) = if q_bare {
                    parse_indexed(c_src, c_span)?;
                    (find_register(qregs, q_src, q_span)?.size, 1, q_span)
                } else {
                    parse_indexed(q_src, q_span)?;
                    (1, find_register(cregs, c_src, c_span)?.size, c_span)
                };
                return Err(QasmError::Malformed {
                    span,
                    reason: format!(
                        "measure {q_src} -> {c_src} mixes a whole register with one bit, \
                         widths {q_width} and {c_width}"
                    ),
                });
            }
        }
        return Ok(());
    }
    if let Some(rest) = strip_keyword(stmt, "reset") {
        let operand = rest.trim();
        let (qname, qidx) = parse_indexed(operand, token_span(operand))?;
        let mut instr = Instruction::reset(lookup_q(&qname, qidx, token_span(operand))?);
        if let Some(c) = condition {
            instr = instr.with_condition(c);
        }
        circuit.append(instr)?;
        return Ok(());
    }
    if let Some(rest) = strip_keyword(stmt, "barrier") {
        let mut qs = Vec::new();
        for operand in rest.split(',') {
            let operand = operand.trim();
            let (qname, qidx) = parse_indexed(operand, token_span(operand))?;
            qs.push(lookup_q(&qname, qidx, token_span(operand))?);
        }
        circuit.append(Instruction::barrier(qs))?;
        return Ok(());
    }

    // Gate application: name[(params)] operands. The name ends at `(`
    // or whitespace, the parameter list at its closing `)`.
    let name_end = stmt
        .find(|c: char| c == '(' || c.is_whitespace())
        .unwrap_or(stmt.len());
    let (name, mut rest) = stmt.split_at(name_end);
    let mut params = Vec::new();
    if rest.starts_with('(') {
        let close = closing_paren(rest).ok_or_else(|| QasmError::Malformed {
            span,
            reason: "unterminated parameter list".to_string(),
        })?;
        for e in rest[1..close].split(',') {
            let e = e.trim();
            params.push(parse_param_expr(e).map_err(|reason| QasmError::Malformed {
                span: token_span(e),
                reason,
            })?);
        }
        rest = &rest[close + 1..];
    }
    let operands = rest.trim();
    if operands.is_empty() {
        return Err(QasmError::Malformed {
            span,
            reason: format!("unrecognized statement '{stmt}'"),
        });
    }

    let gate = gate_from_name(name, &params).ok_or_else(|| QasmError::UnknownGate {
        span: token_span(name),
        name: name.to_string(),
    })?;
    let mut qs = Vec::new();
    for operand in operands.split(',') {
        let operand = operand.trim();
        let (qname, qidx) = parse_indexed(operand, token_span(operand))?;
        qs.push(lookup_q(&qname, qidx, token_span(operand))?);
    }
    let mut instr = Instruction::gate(gate, qs);
    if let Some(c) = condition {
        instr = instr.with_condition(c);
    }
    circuit.append(instr)?;
    Ok(())
}

/// The rest of `stmt` after `keyword` and the whitespace that must
/// follow it, or `None` when `stmt` does not start that way.
fn strip_keyword<'s>(stmt: &'s str, keyword: &str) -> Option<&'s str> {
    let rest = stmt.strip_prefix(keyword)?;
    rest.starts_with(char::is_whitespace)
        .then(|| rest.trim_start())
}

/// The byte index of the `)` that closes the `(` opening `src`.
fn closing_paren(src: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (i, c) in src.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Adds a declared register's `size` to the running width `total`.
/// Widths stop at `u32::MAX`, the id range of [`QubitId`] and
/// [`ClbitId`], so a hostile declaration is a typed error here instead
/// of an overflow or an id panic later.
fn grow_width(total: usize, size: usize, what: &str, span: Span) -> Result<usize, QasmError> {
    total
        .checked_add(size)
        .filter(|&width| u32::try_from(width).is_ok())
        .ok_or_else(|| QasmError::Malformed {
            span,
            reason: format!("register declarations exceed {} {what} in total", u32::MAX),
        })
}

/// Parses `name[size]` from a register declaration.
fn parse_reg_decl(src: &str, span: Span) -> Result<(String, usize), QasmError> {
    let (name, idx) = parse_indexed(src.trim(), span)?;
    Ok((name, idx))
}

/// Whether `src` is a bare register name (no index).
fn is_name(src: &str) -> bool {
    !src.is_empty() && src.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses `name[index]` into its parts.
fn parse_indexed(src: &str, span: Span) -> Result<(String, usize), QasmError> {
    let open = src.find('[').ok_or_else(|| QasmError::Malformed {
        span,
        reason: format!("expected name[index], got '{src}'"),
    })?;
    let close = src
        .rfind(']')
        .filter(|close| *close > open)
        .ok_or_else(|| QasmError::Malformed {
            span,
            reason: format!("missing ']' in '{src}'"),
        })?;
    let name = src[..open].trim().to_string();
    let idx_src = src[open + 1..close].trim();
    let idx: usize = idx_src.parse().map_err(|_| QasmError::Malformed {
        span: sub_span(src, idx_src, span),
        reason: format!("index in '{src}' is not an integer"),
    })?;
    Ok((name, idx))
}

/// Maps a QASM gate name plus parsed parameters onto [`Gate`].
fn gate_from_name(name: &str, params: &[f64]) -> Option<Gate> {
    let g = match (name, params.len()) {
        ("id", 0) => Gate::I,
        ("x", 0) => Gate::X,
        ("y", 0) => Gate::Y,
        ("z", 0) => Gate::Z,
        ("h", 0) => Gate::H,
        ("s", 0) => Gate::S,
        ("sdg", 0) => Gate::Sdg,
        ("t", 0) => Gate::T,
        ("tdg", 0) => Gate::Tdg,
        ("sx", 0) => Gate::Sx,
        ("sxdg", 0) => Gate::Sxdg,
        ("rx", 1) => Gate::Rx(params[0]),
        ("ry", 1) => Gate::Ry(params[0]),
        ("rz", 1) => Gate::Rz(params[0]),
        ("p" | "u1", 1) => Gate::P(params[0]),
        ("u3" | "u", 3) => Gate::U3(params[0], params[1], params[2]),
        ("cx", 0) => Gate::Cx,
        ("cy", 0) => Gate::Cy,
        ("cz", 0) => Gate::Cz,
        ("ch", 0) => Gate::Ch,
        ("cp" | "cu1", 1) => Gate::Cp(params[0]),
        ("swap", 0) => Gate::Swap,
        ("ccx", 0) => Gate::Ccx,
        ("cswap", 0) => Gate::Cswap,
        _ => return None,
    };
    Some(g)
}

/// The deepest nesting of parentheses and unary signs, counted
/// together, that a parameter expression may use. The evaluator
/// recurses once per level, so the cap keeps hostile input from
/// overflowing the stack.
const MAX_EXPR_DEPTH: usize = 64;

/// Evaluates a QASM parameter expression: numbers, `pi`, unary minus,
/// `+ - * /`, and parentheses.
fn parse_param_expr(src: &str) -> Result<f64, String> {
    let tokens = tokenize(src)?;
    let mut pos = 0;
    let v = parse_sum(&tokens, &mut pos, 0)?;
    if pos != tokens.len() {
        return Err(format!("trailing tokens in expression '{src}'"));
    }
    Ok(v)
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Num(f64),
    Pi,
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

fn tokenize(src: &str) -> Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            'p' if chars.get(i + 1) == Some(&'i') => {
                out.push(Tok::Pi);
                i += 2;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || chars[i] == '.'
                        || chars[i] == 'e'
                        || chars[i] == 'E'
                        || (i > start
                            && (chars[i] == '+' || chars[i] == '-')
                            && matches!(chars[i - 1], 'e' | 'E')))
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let v: f64 = text.parse().map_err(|_| format!("bad number '{text}'"))?;
                out.push(Tok::Num(v));
            }
            other => return Err(format!("unexpected character '{other}'")),
        }
    }
    Ok(out)
}

/// `depth` counts the parentheses and unary signs enclosing `pos`.
fn parse_sum(tokens: &[Tok], pos: &mut usize, depth: usize) -> Result<f64, String> {
    let mut acc = parse_product(tokens, pos, depth)?;
    while let Some(tok) = tokens.get(*pos) {
        match tok {
            Tok::Plus => {
                *pos += 1;
                acc += parse_product(tokens, pos, depth)?;
            }
            Tok::Minus => {
                *pos += 1;
                acc -= parse_product(tokens, pos, depth)?;
            }
            _ => break,
        }
    }
    Ok(acc)
}

fn parse_product(tokens: &[Tok], pos: &mut usize, depth: usize) -> Result<f64, String> {
    let mut acc = parse_atom(tokens, pos, depth)?;
    while let Some(tok) = tokens.get(*pos) {
        match tok {
            Tok::Star => {
                *pos += 1;
                acc *= parse_atom(tokens, pos, depth)?;
            }
            Tok::Slash => {
                *pos += 1;
                acc /= parse_atom(tokens, pos, depth)?;
            }
            _ => break,
        }
    }
    Ok(acc)
}

fn parse_atom(tokens: &[Tok], pos: &mut usize, depth: usize) -> Result<f64, String> {
    let tok = tokens.get(*pos);
    if depth >= MAX_EXPR_DEPTH && matches!(tok, Some(Tok::Minus | Tok::Plus | Tok::LParen)) {
        return Err(format!(
            "expression nests parentheses and signs deeper than {MAX_EXPR_DEPTH} levels"
        ));
    }
    match tok {
        Some(Tok::Num(v)) => {
            *pos += 1;
            Ok(*v)
        }
        Some(Tok::Pi) => {
            *pos += 1;
            Ok(std::f64::consts::PI)
        }
        Some(Tok::Minus) => {
            *pos += 1;
            Ok(-parse_atom(tokens, pos, depth + 1)?)
        }
        Some(Tok::Plus) => {
            *pos += 1;
            parse_atom(tokens, pos, depth + 1)
        }
        Some(Tok::LParen) => {
            *pos += 1;
            let v = parse_sum(tokens, pos, depth + 1)?;
            if tokens.get(*pos) != Some(&Tok::RParen) {
                return Err("missing closing parenthesis".to_string());
            }
            *pos += 1;
            Ok(v)
        }
        other => Err(format!("unexpected token {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn sample() -> QuantumCircuit {
        let mut c = QuantumCircuit::new(3, 3);
        c.h(0)
            .unwrap()
            .cx(0, 1)
            .unwrap()
            .rx(0.25, 2)
            .unwrap()
            .u3(0.1, 0.2, 0.3, 2)
            .unwrap()
            .cp(1.5, 0, 2)
            .unwrap()
            .barrier([0usize, 1, 2])
            .unwrap()
            .measure(0, 0)
            .unwrap()
            .measure(1, 1)
            .unwrap();
        c
    }

    #[test]
    fn export_contains_expected_statements() {
        let src = to_qasm(&sample());
        assert!(src.starts_with("OPENQASM 2.0;"));
        assert!(src.contains("qreg q[3];"));
        assert!(src.contains("creg c[3];"));
        assert!(src.contains("h q[0];"));
        assert!(src.contains("cx q[0],q[1];"));
        assert!(src.contains("measure q[0] -> c[0];"));
        assert!(src.contains("barrier q[0],q[1],q[2];"));
    }

    #[test]
    fn round_trip_preserves_instruction_stream() {
        let original = sample();
        let parsed = from_qasm(&to_qasm(&original)).unwrap();
        assert_eq!(parsed.num_qubits(), original.num_qubits());
        assert_eq!(parsed.num_clbits(), original.num_clbits());
        assert_eq!(parsed.len(), original.len());
        for (a, b) in original.instructions().iter().zip(parsed.instructions()) {
            match (a.as_gate(), b.as_gate()) {
                (Some(ga), Some(gb)) => {
                    assert_eq!(ga.name(), gb.name());
                    for (pa, pb) in ga.params().iter().zip(gb.params()) {
                        assert!((pa - pb).abs() < 1e-12);
                    }
                }
                _ => assert_eq!(a.kind().name(), b.kind().name()),
            }
            assert_eq!(a.qubits(), b.qubits());
            assert_eq!(a.clbits(), b.clbits());
        }
    }

    #[test]
    fn conditions_round_trip_via_per_bit_registers() {
        let mut c = QuantumCircuit::new(2, 2);
        c.measure(0, 1).unwrap();
        c.gate_if(Gate::X, [1], 1, true).unwrap();
        let src = to_qasm(&c);
        assert!(src.contains("creg c1[1];"));
        assert!(src.contains("if(c1==1) x q[1];"));
        let parsed = from_qasm(&src).unwrap();
        let cond = parsed.instructions()[1].condition().unwrap();
        assert_eq!(cond.clbit.index(), 1);
        assert!(cond.value);
    }

    #[test]
    fn conditions_outside_the_one_bit_form_are_malformed() {
        // (register and statement, span of the offending token)
        let cases = [
            ("creg c[2];\nif(c==2) x q[0];", Span::new(4, 4)),
            ("creg c[1];\nif(c==2) x q[0];", Span::new(4, 7)),
            (
                "creg c[1];\nif(c==1) measure q[0] -> c[0];",
                Span::new(4, 10),
            ),
            ("creg c[1];\nif(c==1) barrier q[0];", Span::new(4, 10)),
        ];
        for (body, at) in cases {
            let src = format!("OPENQASM 2.0;\nqreg q[1];\n{body}");
            match from_qasm(&src) {
                Err(QasmError::Malformed { span, .. }) => assert_eq!(span, at, "{body}"),
                other => panic!("expected Malformed for {body:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn post_select_round_trips_through_pragma() {
        let mut c = QuantumCircuit::new(1, 0);
        c.h(0).unwrap().post_select(0, true).unwrap();
        let src = to_qasm(&c);
        assert!(src.contains("// pragma qassert post_select q[0] 1"));
        let parsed = from_qasm(&src).unwrap();
        assert_eq!(
            parsed.instructions()[1].kind(),
            &OpKind::PostSelect { outcome: true }
        );
    }

    #[test]
    fn missing_header_is_rejected() {
        assert_eq!(
            from_qasm("qreg q[1];\nh q[0];"),
            Err(QasmError::MissingHeader)
        );
    }

    #[test]
    fn truncated_header_is_rejected_not_panicked() {
        // A header cut mid-keyword is not a header; the file's first
        // statement becomes an unknown gate application and the parse
        // must fail typed (header missing is detected first).
        assert_eq!(from_qasm("OPENQ"), Err(QasmError::MissingHeader));
        assert_eq!(from_qasm(""), Err(QasmError::MissingHeader));
        // Header truncated after the version number still identifies
        // itself (the exporter always writes the semicolon, but hand-cut
        // files arrive over the wire).
        assert!(from_qasm("OPENQASM 2.0\nqreg q[1];\nh q[0];").is_ok());
    }

    #[test]
    fn truncated_declaration_reports_span() {
        // The qreg statement is cut before its closing bracket.
        let src = "OPENQASM 2.0;\nqreg q[";
        match from_qasm(src) {
            Err(QasmError::Malformed { span, reason }) => {
                assert_eq!(span, Span::new(2, 6));
                assert!(reason.contains("missing ']'"), "reason: {reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn unknown_gate_is_reported_with_line_and_col() {
        let src = "OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];";
        match from_qasm(src) {
            Err(QasmError::UnknownGate { span, name }) => {
                assert_eq!(span, Span::new(3, 1));
                assert_eq!(name, "frobnicate");
            }
            other => panic!("expected UnknownGate, got {other:?}"),
        }
        // Column points at the gate name even behind indentation and a
        // condition prefix.
        let src = "OPENQASM 2.0;\nqreg q[1];\ncreg c0[1];\n   if(c0==1) frob q[0];";
        match from_qasm(src) {
            Err(QasmError::UnknownGate { span, name }) => {
                assert_eq!(span, Span::new(4, 14));
                assert_eq!(name, "frob");
            }
            other => panic!("expected UnknownGate, got {other:?}"),
        }
    }

    #[test]
    fn unknown_register_is_reported_with_span() {
        let src = "OPENQASM 2.0;\nqreg q[1];\nh r[0];";
        match from_qasm(src) {
            Err(QasmError::UnknownRegister { span, name }) => {
                assert_eq!(span, Span::new(3, 3));
                assert_eq!(name, "r");
            }
            other => panic!("expected UnknownRegister, got {other:?}"),
        }
    }

    #[test]
    fn index_out_of_range_is_reported_with_span() {
        let src = "OPENQASM 2.0;\nqreg q[1];\nh q[3];";
        match from_qasm(src) {
            Err(QasmError::Malformed { span, reason }) => {
                assert_eq!(span, Span::new(3, 3));
                assert!(reason.contains("out of range"), "reason: {reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn non_integer_index_reports_the_index_span() {
        let src = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[abc];";
        match from_qasm(src) {
            Err(QasmError::Malformed { span, reason }) => {
                // Column of `abc` inside the second operand.
                assert_eq!(span, Span::new(3, 11));
                assert!(reason.contains("not an integer"), "reason: {reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn reversed_brackets_do_not_panic() {
        // `]` before `[` used to slice out of order and panic.
        for stmt in ["h q]0[;", "h q][;", "measure q]0[ -> c[0];"] {
            let src = format!("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n{stmt}");
            assert!(
                matches!(from_qasm(&src), Err(QasmError::Malformed { .. })),
                "statement {stmt:?} must fail typed"
            );
        }
        // Same for `)` before `(` in a parameter list.
        let src = "OPENQASM 2.0;\nqreg q[1];\nrx)0.5( q[0];";
        assert!(matches!(from_qasm(src), Err(QasmError::Malformed { .. })));
    }

    #[test]
    fn error_span_accessor_exposes_location() {
        let src = "OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];";
        let err = from_qasm(src).unwrap_err();
        assert_eq!(err.span(), Some(Span::new(3, 1)));
        assert_eq!(from_qasm("").unwrap_err().span(), None);
    }

    #[test]
    fn second_statement_on_a_line_gets_its_own_column() {
        let src = "OPENQASM 2.0;\nqreg q[2];\nh q[0]; zz q[1];";
        match from_qasm(src) {
            Err(QasmError::UnknownGate { span, name }) => {
                assert_eq!(span, Span::new(3, 9));
                assert_eq!(name, "zz");
            }
            other => panic!("expected UnknownGate, got {other:?}"),
        }
    }

    #[test]
    fn malformed_pragma_reports_pragma_span() {
        let src = "OPENQASM 2.0;\nqreg q[1];\n// pragma qassert bogus q[0] 1 2";
        match from_qasm(src) {
            Err(QasmError::Malformed { span, reason }) => {
                assert_eq!(span.line, 3);
                assert!(reason.contains("unrecognized pragma"), "reason: {reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn pi_expressions_evaluate() {
        assert!((parse_param_expr("pi").unwrap() - PI).abs() < 1e-15);
        assert!((parse_param_expr("pi/2").unwrap() - PI / 2.0).abs() < 1e-15);
        assert!((parse_param_expr("-pi/4").unwrap() + PI / 4.0).abs() < 1e-15);
        assert!((parse_param_expr("3*pi/2").unwrap() - 3.0 * PI / 2.0).abs() < 1e-15);
        assert!((parse_param_expr("0.5").unwrap() - 0.5).abs() < 1e-15);
        assert!((parse_param_expr("1e-3").unwrap() - 1e-3).abs() < 1e-18);
        assert!((parse_param_expr("(pi+1)/2").unwrap() - (PI + 1.0) / 2.0).abs() < 1e-15);
        assert!((parse_param_expr("1-2").unwrap() + 1.0).abs() < 1e-15);
    }

    #[test]
    fn bad_expressions_are_rejected() {
        assert!(parse_param_expr("pi pi").is_err());
        assert!(parse_param_expr("(1").is_err());
        assert!(parse_param_expr("&").is_err());
        assert!(parse_param_expr("").is_err());
    }

    #[test]
    fn deeply_nested_expressions_are_malformed_not_a_stack_overflow() {
        let at_cap = format!(
            "{}1{}",
            "(".repeat(MAX_EXPR_DEPTH),
            ")".repeat(MAX_EXPR_DEPTH)
        );
        assert_eq!(parse_param_expr(&at_cap), Ok(1.0));
        assert_eq!(
            parse_param_expr(&format!("{}1", "-".repeat(MAX_EXPR_DEPTH))),
            Ok(1.0)
        );
        for expr in [
            format!("{}1{}", "(".repeat(20_000), ")".repeat(20_000)),
            format!("{}1", "-".repeat(200_000)),
            format!(
                "{}1{}",
                "-(".repeat(MAX_EXPR_DEPTH),
                ")".repeat(MAX_EXPR_DEPTH)
            ),
        ] {
            let src = format!("OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n");
            match from_qasm(&src) {
                Err(QasmError::Malformed { span, reason }) => {
                    assert_eq!(span, Span::new(3, 4), "the expression's span");
                    assert!(reason.contains("deeper than 64"), "{reason}");
                }
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn gates_with_pi_params_parse() {
        let src = "OPENQASM 2.0;\nqreg q[1];\nrx(pi/2) q[0];\nu3(pi,0,pi) q[0];";
        let c = from_qasm(src).unwrap();
        assert_eq!(c.len(), 2);
        match c.instructions()[0].as_gate() {
            Some(Gate::Rx(t)) => assert!((t - PI / 2.0).abs() < 1e-15),
            other => panic!("expected rx, got {other:?}"),
        }
    }

    #[test]
    fn multiple_registers_map_to_flat_indices() {
        let src =
            "OPENQASM 2.0;\nqreg a[1];\nqreg b[2];\ncreg m[2];\nh b[1];\nmeasure b[1] -> m[0];";
        let c = from_qasm(src).unwrap();
        // a occupies index 0, b occupies 1..3, so b[1] is flat qubit 2.
        assert_eq!(c.instructions()[0].qubits()[0].index(), 2);
    }

    #[test]
    fn register_widths_past_the_id_range_are_malformed() {
        // (source, line of the declaration that breaks the u32 id range)
        let cases = [
            (
                "OPENQASM 2.0;\nqreg a[18446744073709551615];\nqreg b[1];\nh b[0];",
                2,
            ),
            ("OPENQASM 2.0;\nqreg a[4294967295];\nqreg b[1];\nh b[0];", 3),
            (
                "OPENQASM 2.0;\nqreg q[1];\ncreg a[18446744073709551615];\ncreg b[1];",
                3,
            ),
            (
                "OPENQASM 2.0;\nqreg q[1];\ncreg a[4294967295];\ncreg b[1];",
                4,
            ),
        ];
        for (src, line) in cases {
            match from_qasm(src) {
                Err(QasmError::Malformed { span, reason }) => {
                    assert_eq!(span, Span::new(line, 1), "{src}");
                    assert!(reason.contains("4294967295"), "reason: {reason}");
                }
                other => panic!("expected Malformed for {src:?}, got {other:?}"),
            }
        }
        // The widest declaration that still fits parses.
        let widest = from_qasm("OPENQASM 2.0;\nqreg a[4294967294];\nqreg b[1];").unwrap();
        assert_eq!(widest.num_qubits(), u32::MAX as usize);
    }

    #[test]
    fn u_and_p_aliases_are_accepted() {
        let src = "OPENQASM 2.0;\nqreg q[1];\np(0.5) q[0];\nu(0.1,0.2,0.3) q[0];\nu1(0.4) q[0];";
        let c = from_qasm(src).unwrap();
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn broadcast_measure_expands_to_one_measure_per_index() {
        let header = "OPENQASM 2.0;\nqreg a[1];\nqreg b[2];\ncreg m[2];\ncreg n[1];\nh b[0];\n";
        let broadcast = from_qasm(&format!("{header}measure b -> m;\nmeasure a -> n;")).unwrap();
        let per_bit = from_qasm(&format!(
            "{header}measure b[0] -> m[0];\nmeasure b[1] -> m[1];\nmeasure a[0] -> n[0];"
        ))
        .unwrap();
        assert_eq!(broadcast, per_bit);
        // b occupies flat qubits 1..3 and m flat clbits 0..2, in order.
        let pairs: Vec<(usize, usize)> = broadcast.instructions()[1..]
            .iter()
            .map(|i| (i.qubits()[0].index(), i.clbits()[0].index()))
            .collect();
        assert_eq!(pairs, [(1, 0), (2, 1), (0, 2)]);
    }

    #[test]
    fn broadcast_measure_round_trips_through_export() {
        let parsed =
            from_qasm("OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nh q[1];\nmeasure q -> c;").unwrap();
        assert_eq!(parsed.len(), 4);
        let src = to_qasm(&parsed);
        assert!(src.contains("measure q[2] -> c[2];"), "{src}");
        assert_eq!(from_qasm(&src).unwrap(), parsed);
    }

    #[test]
    fn broadcast_measure_width_mismatches_are_malformed_at_the_operand() {
        // (statement on line 4, column of the offending operand, both widths)
        let cases = [
            ("measure q -> c;", 14, ["3", "2"]),
            ("measure q[0] -> c;", 17, ["1", "2"]),
            ("measure q -> c[0];", 9, ["3", "1"]),
        ];
        for (stmt, col, widths) in cases {
            let src = format!("OPENQASM 2.0;\nqreg q[3];\ncreg c[2];\n{stmt}");
            match from_qasm(&src) {
                Err(QasmError::Malformed { span, reason }) => {
                    assert_eq!(span, Span::new(4, col), "{stmt}");
                    for width in widths {
                        assert!(reason.contains(width), "{stmt}: {reason}");
                    }
                }
                other => panic!("expected Malformed for {stmt:?}, got {other:?}"),
            }
        }
        // An unknown bare register is still an unknown register.
        let src = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q -> d;";
        match from_qasm(src) {
            Err(QasmError::UnknownRegister { span, name }) => {
                assert_eq!((span, name.as_str()), (Span::new(4, 14), "d"));
            }
            other => panic!("expected UnknownRegister, got {other:?}"),
        }
    }

    #[test]
    fn spaced_and_unspaced_parameters_give_equal_circuits() {
        let header = "OPENQASM 2.0;\nqreg q[2];\n";
        let spaced = from_qasm(&format!(
            "{header}rx(pi / 2) q[0];\nu3( 0.1 , -pi / 4, (1 + 2) * pi ) q[1];\ncp( 0.5 )q[0],q[1];"
        ))
        .unwrap();
        let unspaced = from_qasm(&format!(
            "{header}rx(pi/2) q[0];\nu3(0.1,-pi/4,(1+2)*pi) q[1];\ncp(0.5) q[0],q[1];"
        ))
        .unwrap();
        assert_eq!(spaced, unspaced);
        assert_eq!(spaced.len(), 3);
    }

    #[test]
    fn a_tab_separates_a_gate_from_its_operands() {
        let tabbed = from_qasm(
            "OPENQASM 2.0;\nqreg\tq[2];\ncreg\tc[2];\nh\tq[0];\ncx\tq[0],\tq[1];\n\
             rz(0.3)\tq[1];\nbarrier\tq[0],q[1];\nreset\tq[1];\nmeasure\tq[0] -> c[0];",
        )
        .unwrap();
        let spaced = from_qasm(
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n\
             rz(0.3) q[1];\nbarrier q[0],q[1];\nreset q[1];\nmeasure q[0] -> c[0];",
        )
        .unwrap();
        assert_eq!(tabbed, spaced);
        assert_eq!(tabbed.len(), 6);
    }

    #[test]
    fn a_bad_parameter_span_points_at_the_parameter() {
        // (statement on line 4, column of the bad parameter)
        let cases = [
            ("u3(0.1, 2 * &, 0.3) q[0];", 9),
            ("rx( pi / ) q[0];", 5),
            ("if(c==1) rz(1 +) q[0];", 13),
        ];
        for (stmt, col) in cases {
            let src = format!("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n{stmt}");
            match from_qasm(&src) {
                Err(QasmError::Malformed { span, .. }) => {
                    assert_eq!(span, Span::new(4, col), "{stmt}");
                }
                other => panic!("expected Malformed for {stmt:?}, got {other:?}"),
            }
        }
        // A list that never closes is malformed at the statement.
        let src = "OPENQASM 2.0;\nqreg q[1];\nrx(pi / 2 q[0];";
        match from_qasm(src) {
            Err(QasmError::Malformed { span, reason }) => {
                assert_eq!(span, Span::new(3, 1));
                assert!(reason.contains("unterminated parameter list"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
