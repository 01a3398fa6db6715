//! JSON codecs for the artifacts the on-disk store spills: whole
//! [`Executable`]s, [`DebugTrace`]s, and violation sets.
//!
//! Encoding appends compact JSON text straight through a [`JsonWriter`], with
//! no intermediate [`Json`] tree. It is deterministic (a pure function of
//! the value) and canonical (the text is exactly what [`Json::to_compact`]
//! spells for its own parse), which is what lets the store checksum the raw
//! payload bytes. Decoding parses a tree and is *total* over arbitrary JSON:
//! every malformed shape comes back as an `Err` with a short reason, never a
//! panic, so the store can treat a corrupted cache file as a miss.
//! Sum types use compact tagged arrays (`["r", 3]` for a register operand)
//! to keep executables — the largest artifact — small on disk.

use holes_compiler::{CompilerConfig, Executable, OptLevel, Personality, PipelineReport};
use holes_core::json::{Json, JsonWriter};
use holes_core::{Observed, Violation};
use holes_debugger::{Availability, DebugTrace, LineStop, VarView};
use holes_debuginfo::{
    Attr, AttrValue, DebugInfo, Die, DieId, DieTag, LineRow, LineTable, LocListEntry, Location,
};
use holes_machine::stack::{SFunction, SInst, StackProgram};
use holes_machine::{
    CallTarget, GlobalSlot, MAddr, MFunction, MInst, MachineCode, MachineProgram, Operand,
};
use holes_minic::ast::{BinOp, FunctionId, UnOp};

/// Decode failure: a short, human-readable reason (surfaced only in store
/// diagnostics; the caller recomputes the artifact either way).
pub(super) type DecodeError = String;

fn err<T>(what: &str) -> Result<T, DecodeError> {
    Err(what.to_owned())
}

// ------------------------------------------------------------- primitives

fn get<'a>(json: &'a Json, key: &str) -> Result<&'a Json, DecodeError> {
    json.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn str_field<'a>(json: &'a Json, key: &str) -> Result<&'a str, DecodeError> {
    get(json, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn u64_field(json: &Json, key: &str) -> Result<u64, DecodeError> {
    get(json, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not an unsigned integer"))
}

fn u32_field(json: &Json, key: &str) -> Result<u32, DecodeError> {
    u64_field(json, key)?
        .try_into()
        .map_err(|_| format!("`{key}` is out of u32 range"))
}

fn usize_field(json: &Json, key: &str) -> Result<usize, DecodeError> {
    get(json, key)?
        .as_usize()
        .ok_or_else(|| format!("`{key}` is not a usize"))
}

fn bool_field(json: &Json, key: &str) -> Result<bool, DecodeError> {
    get(json, key)?
        .as_bool()
        .ok_or_else(|| format!("`{key}` is not a boolean"))
}

fn arr_field<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], DecodeError> {
    get(json, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not an array"))
}

fn as_u64(json: &Json, what: &str) -> Result<u64, DecodeError> {
    json.as_u64()
        .ok_or_else(|| format!("{what} is not an unsigned integer"))
}

fn as_i64(json: &Json, what: &str) -> Result<i64, DecodeError> {
    json.as_i64()
        .ok_or_else(|| format!("{what} is not an integer"))
}

fn as_reg(json: &Json, what: &str) -> Result<u8, DecodeError> {
    as_u64(json, what)?
        .try_into()
        .map_err(|_| format!("{what} is out of register range"))
}

fn tagged<'a>(json: &'a Json, what: &str) -> Result<(&'a str, &'a [Json]), DecodeError> {
    let items = json
        .as_arr()
        .ok_or_else(|| format!("{what} is not a tagged array"))?;
    let tag = items
        .first()
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what} has no tag"))?;
    Ok((tag, &items[1..]))
}

/// Write a tagged array: `["tag", fields...]`.
fn write_tagged(w: &mut JsonWriter, tag: &str, fields: impl FnOnce(&mut JsonWriter)) {
    w.begin_arr();
    w.str(tag);
    fields(w);
    w.end_arr();
}

fn write_opt_u64(w: &mut JsonWriter, value: Option<u64>) {
    match value {
        Some(value) => w.u64(value),
        None => w.null(),
    }
}

fn write_strings<'a>(w: &mut JsonWriter, items: impl IntoIterator<Item = &'a String>) {
    w.begin_arr();
    for item in items {
        w.str(item);
    }
    w.end_arr();
}

fn write_call_target(w: &mut JsonWriter, target: CallTarget) {
    match target {
        CallTarget::Sink => w.null(),
        CallTarget::Function(f) => w.u64(f.into()),
    }
}

// --------------------------------------------------------------- operands

fn write_operand(w: &mut JsonWriter, op: Operand) {
    match op {
        Operand::Reg(r) => write_tagged(w, "r", |w| w.u64(r.into())),
        Operand::Imm(v) => write_tagged(w, "i", |w| w.i64(v)),
        Operand::Slot(s) => write_tagged(w, "s", |w| w.u64(s.into())),
    }
}

fn operand_from_json(json: &Json) -> Result<Operand, DecodeError> {
    match tagged(json, "operand")? {
        ("r", [reg]) => Ok(Operand::Reg(as_reg(reg, "operand register")?)),
        ("i", [imm]) => Ok(Operand::Imm(as_i64(imm, "operand immediate")?)),
        ("s", [slot]) => Ok(Operand::Slot(
            as_u64(slot, "operand slot")?
                .try_into()
                .map_err(|_| "operand slot out of range".to_owned())?,
        )),
        _ => err("unknown operand shape"),
    }
}

fn write_maddr(w: &mut JsonWriter, addr: MAddr) {
    match addr {
        MAddr::Global {
            global,
            index,
            disp,
        } => write_tagged(w, "g", |w| {
            w.u64(global.into());
            write_opt_u64(w, index.map(u64::from));
            w.u64(disp.into());
        }),
        MAddr::Frame { slot } => write_tagged(w, "f", |w| w.u64(slot.into())),
        MAddr::Indirect { reg } => write_tagged(w, "p", |w| w.u64(reg.into())),
    }
}

fn maddr_from_json(json: &Json) -> Result<MAddr, DecodeError> {
    match tagged(json, "address")? {
        ("g", [global, index, disp]) => Ok(MAddr::Global {
            global: as_u64(global, "global index")? as u32,
            index: match index {
                Json::Null => None,
                other => Some(as_reg(other, "global index register")?),
            },
            disp: as_u64(disp, "global displacement")? as u32,
        }),
        ("f", [slot]) => Ok(MAddr::Frame {
            slot: as_u64(slot, "frame slot")? as u32,
        }),
        ("p", [reg]) => Ok(MAddr::Indirect {
            reg: as_reg(reg, "indirect register")?,
        }),
        _ => err("unknown address shape"),
    }
}

fn bin_op_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::Xor => "xor",
        BinOp::Eq => "eq",
        BinOp::Ne => "ne",
        BinOp::Lt => "lt",
        BinOp::Le => "le",
        BinOp::Gt => "gt",
        BinOp::Ge => "ge",
    }
}

fn bin_op_from_name(name: &str) -> Result<BinOp, DecodeError> {
    BinOp::ALL
        .into_iter()
        .find(|&op| bin_op_name(op) == name)
        .ok_or_else(|| format!("unknown binary operator `{name}`"))
}

fn un_op_name(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "neg",
        UnOp::Not => "not",
        UnOp::LogicalNot => "lnot",
    }
}

fn un_op_from_name(name: &str) -> Result<UnOp, DecodeError> {
    [UnOp::Neg, UnOp::Not, UnOp::LogicalNot]
        .into_iter()
        .find(|&op| un_op_name(op) == name)
        .ok_or_else(|| format!("unknown unary operator `{name}`"))
}

// ----------------------------------------------------------- instructions

fn write_inst(w: &mut JsonWriter, inst: &MInst) {
    match inst {
        MInst::Nop => write_tagged(w, "nop", |_| {}),
        MInst::LoadImm { dst, value } => write_tagged(w, "li", |w| {
            w.u64((*dst).into());
            w.i64(*value);
        }),
        MInst::Mov { dst, src } => write_tagged(w, "mov", |w| {
            w.u64((*dst).into());
            write_operand(w, *src);
        }),
        MInst::Bin { op, dst, lhs, rhs } => write_tagged(w, "bin", |w| {
            w.str(bin_op_name(*op));
            w.u64((*dst).into());
            write_operand(w, *lhs);
            write_operand(w, *rhs);
        }),
        MInst::Un { op, dst, src } => write_tagged(w, "un", |w| {
            w.str(un_op_name(*op));
            w.u64((*dst).into());
            write_operand(w, *src);
        }),
        MInst::Trunc { dst, bits, signed } => write_tagged(w, "trunc", |w| {
            w.u64((*dst).into());
            w.u64((*bits).into());
            w.bool(*signed);
        }),
        MInst::Load { dst, addr } => write_tagged(w, "ld", |w| {
            w.u64((*dst).into());
            write_maddr(w, *addr);
        }),
        MInst::Store { addr, src } => write_tagged(w, "st", |w| {
            write_maddr(w, *addr);
            write_operand(w, *src);
        }),
        MInst::Lea { dst, addr } => write_tagged(w, "lea", |w| {
            w.u64((*dst).into());
            write_maddr(w, *addr);
        }),
        MInst::Jump { target } => write_tagged(w, "j", |w| w.u64((*target).into())),
        MInst::BranchZero { cond, target } => write_tagged(w, "bz", |w| {
            w.u64((*cond).into());
            w.u64((*target).into());
        }),
        MInst::BranchNonZero { cond, target } => write_tagged(w, "bnz", |w| {
            w.u64((*cond).into());
            w.u64((*target).into());
        }),
        MInst::Call { target, args, ret } => write_tagged(w, "call", |w| {
            write_call_target(w, *target);
            w.begin_arr();
            for arg in args {
                write_operand(w, *arg);
            }
            w.end_arr();
            write_opt_u64(w, ret.map(u64::from));
        }),
        MInst::Ret { value } => write_tagged(w, "ret", |w| match value {
            Some(op) => write_operand(w, *op),
            None => w.null(),
        }),
    }
}

fn inst_from_json(json: &Json) -> Result<MInst, DecodeError> {
    match tagged(json, "instruction")? {
        ("nop", []) => Ok(MInst::Nop),
        ("li", [dst, value]) => Ok(MInst::LoadImm {
            dst: as_reg(dst, "li dst")?,
            value: as_i64(value, "li value")?,
        }),
        ("mov", [dst, src]) => Ok(MInst::Mov {
            dst: as_reg(dst, "mov dst")?,
            src: operand_from_json(src)?,
        }),
        ("bin", [op, dst, lhs, rhs]) => Ok(MInst::Bin {
            op: bin_op_from_name(op.as_str().ok_or("bin op is not a string")?)?,
            dst: as_reg(dst, "bin dst")?,
            lhs: operand_from_json(lhs)?,
            rhs: operand_from_json(rhs)?,
        }),
        ("un", [op, dst, src]) => Ok(MInst::Un {
            op: un_op_from_name(op.as_str().ok_or("un op is not a string")?)?,
            dst: as_reg(dst, "un dst")?,
            src: operand_from_json(src)?,
        }),
        ("trunc", [dst, bits, signed]) => Ok(MInst::Trunc {
            dst: as_reg(dst, "trunc dst")?,
            bits: as_u64(bits, "trunc bits")? as u32,
            signed: signed.as_bool().ok_or("trunc signed is not a boolean")?,
        }),
        ("ld", [dst, addr]) => Ok(MInst::Load {
            dst: as_reg(dst, "ld dst")?,
            addr: maddr_from_json(addr)?,
        }),
        ("st", [addr, src]) => Ok(MInst::Store {
            addr: maddr_from_json(addr)?,
            src: operand_from_json(src)?,
        }),
        ("lea", [dst, addr]) => Ok(MInst::Lea {
            dst: as_reg(dst, "lea dst")?,
            addr: maddr_from_json(addr)?,
        }),
        ("j", [target]) => Ok(MInst::Jump {
            target: as_u64(target, "jump target")? as u32,
        }),
        ("bz", [cond, target]) => Ok(MInst::BranchZero {
            cond: as_reg(cond, "bz cond")?,
            target: as_u64(target, "bz target")? as u32,
        }),
        ("bnz", [cond, target]) => Ok(MInst::BranchNonZero {
            cond: as_reg(cond, "bnz cond")?,
            target: as_u64(target, "bnz target")? as u32,
        }),
        ("call", [target, args, ret]) => Ok(MInst::Call {
            target: match target {
                Json::Null => CallTarget::Sink,
                other => CallTarget::Function(as_u64(other, "call target")? as u32),
            },
            args: args
                .as_arr()
                .ok_or("call args is not an array")?
                .iter()
                .map(operand_from_json)
                .collect::<Result<_, _>>()?,
            ret: match ret {
                Json::Null => None,
                other => Some(as_reg(other, "call ret")?),
            },
        }),
        ("ret", [value]) => Ok(MInst::Ret {
            value: match value {
                Json::Null => None,
                other => Some(operand_from_json(other)?),
            },
        }),
        (tag, _) => Err(format!("unknown instruction `{tag}`")),
    }
}

// -------------------------------------------------------- machine program

fn write_globals(w: &mut JsonWriter, globals: &[GlobalSlot]) {
    w.begin_arr();
    for g in globals {
        w.begin_obj();
        w.key("name");
        w.str(&g.name);
        w.key("elements");
        w.u64(g.elements as u64);
        w.key("init");
        w.begin_arr();
        for &value in &g.init {
            w.i64(value);
        }
        w.end_arr();
        w.key("bits");
        w.u64(g.bits.into());
        w.key("signed");
        w.bool(g.signed);
        w.key("volatile");
        w.bool(g.volatile);
        w.end_obj();
    }
    w.end_arr();
}

fn globals_from_json(json: &Json) -> Result<Vec<GlobalSlot>, DecodeError> {
    arr_field(json, "globals")?
        .iter()
        .map(|g| {
            let elements = usize_field(g, "elements")?;
            let init = arr_field(g, "init")?
                .iter()
                .map(|v| as_i64(v, "global initializer"))
                .collect::<Result<Vec<_>, _>>()?;
            if init.len() != elements {
                return err("global initializer length mismatch");
            }
            Ok(GlobalSlot {
                name: str_field(g, "name")?.to_owned(),
                elements,
                init,
                bits: u32_field(g, "bits")?,
                signed: bool_field(g, "signed")?,
                volatile: bool_field(g, "volatile")?,
            })
        })
        .collect()
}

/// Write a register-ISA program; `backend` is the tag leading the object
/// (none for the register backend, `frame` for the frame backend).
fn write_machine(w: &mut JsonWriter, program: &MachineProgram, backend: Option<&str>) {
    w.begin_obj();
    if let Some(tag) = backend {
        w.key("backend");
        w.str(tag);
    }
    w.key("functions");
    w.begin_arr();
    for f in &program.functions {
        w.begin_obj();
        w.key("name");
        w.str(&f.name);
        w.key("code");
        w.begin_arr();
        for inst in &f.code {
            write_inst(w, inst);
        }
        w.end_arr();
        w.key("frame_slots");
        w.u64(f.frame_slots.into());
        w.key("base_address");
        w.u64(f.base_address);
        w.end_obj();
    }
    w.end_arr();
    w.key("globals");
    write_globals(w, &program.globals);
    w.key("entry");
    w.u64(program.entry.into());
    w.end_obj();
}

fn machine_from_json(json: &Json) -> Result<MachineProgram, DecodeError> {
    let functions = arr_field(json, "functions")?
        .iter()
        .map(|f| {
            Ok(MFunction {
                name: str_field(f, "name")?.to_owned(),
                code: arr_field(f, "code")?
                    .iter()
                    .map(inst_from_json)
                    .collect::<Result<_, _>>()?,
                frame_slots: u32_field(f, "frame_slots")?,
                base_address: u64_field(f, "base_address")?,
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let globals = globals_from_json(json)?;
    let entry = u32_field(json, "entry")?;
    if (entry as usize) >= functions.len() {
        return err("entry function index out of range");
    }
    Ok(MachineProgram {
        functions,
        globals,
        entry,
    })
}

// ---------------------------------------------------- stack-VM program

fn write_sinst(w: &mut JsonWriter, inst: SInst) {
    match inst {
        SInst::Nop => write_tagged(w, "nop", |_| {}),
        SInst::PushImm(v) => write_tagged(w, "pi", |w| w.i64(v)),
        SInst::PushReg(r) => write_tagged(w, "pr", |w| w.u64(r.into())),
        SInst::PopReg(r) => write_tagged(w, "qr", |w| w.u64(r.into())),
        SInst::PushSlot(s) => write_tagged(w, "ps", |w| w.u64(s.into())),
        SInst::PopSlot(s) => write_tagged(w, "qs", |w| w.u64(s.into())),
        SInst::Drop => write_tagged(w, "drop", |_| {}),
        SInst::Bin(op) => write_tagged(w, "bin", |w| w.str(bin_op_name(op))),
        SInst::Un(op) => write_tagged(w, "un", |w| w.str(un_op_name(op))),
        SInst::Trunc { bits, signed } => write_tagged(w, "trunc", |w| {
            w.u64(bits.into());
            w.bool(signed);
        }),
        SInst::LoadGlobal { global, indexed } => write_tagged(w, "lg", |w| {
            w.u64(global.into());
            w.bool(indexed);
        }),
        SInst::StoreGlobal { global, indexed } => write_tagged(w, "sg", |w| {
            w.u64(global.into());
            w.bool(indexed);
        }),
        SInst::LoadInd => write_tagged(w, "ldi", |_| {}),
        SInst::StoreInd => write_tagged(w, "sti", |_| {}),
        SInst::PushGlobalAddr { global } => write_tagged(w, "pga", |w| w.u64(global.into())),
        SInst::PushSlotAddr(s) => write_tagged(w, "psa", |w| w.u64(s.into())),
        SInst::Jump { target } => write_tagged(w, "j", |w| w.u64(target.into())),
        SInst::BranchZero { target } => write_tagged(w, "bz", |w| w.u64(target.into())),
        SInst::BranchNonZero { target } => write_tagged(w, "bnz", |w| w.u64(target.into())),
        SInst::Call {
            target,
            argc,
            has_ret,
        } => write_tagged(w, "call", |w| {
            write_call_target(w, target);
            w.u64(argc.into());
            w.bool(has_ret);
        }),
        SInst::Ret { has_value } => write_tagged(w, "ret", |w| w.bool(has_value)),
    }
}

fn sinst_from_json(json: &Json) -> Result<SInst, DecodeError> {
    let as_u32 = |v: &Json, what: &str| -> Result<u32, DecodeError> {
        as_u64(v, what)?
            .try_into()
            .map_err(|_| format!("{what} out of u32 range"))
    };
    let as_flag = |v: &Json, what: &str| -> Result<bool, DecodeError> {
        v.as_bool()
            .ok_or_else(|| format!("{what} is not a boolean"))
    };
    match tagged(json, "stack instruction")? {
        ("nop", []) => Ok(SInst::Nop),
        ("pi", [v]) => Ok(SInst::PushImm(as_i64(v, "push immediate")?)),
        ("pr", [r]) => Ok(SInst::PushReg(as_reg(r, "push register")?)),
        ("qr", [r]) => Ok(SInst::PopReg(as_reg(r, "pop register")?)),
        ("ps", [s]) => Ok(SInst::PushSlot(as_u32(s, "push slot")?)),
        ("qs", [s]) => Ok(SInst::PopSlot(as_u32(s, "pop slot")?)),
        ("drop", []) => Ok(SInst::Drop),
        ("bin", [op]) => Ok(SInst::Bin(bin_op_from_name(
            op.as_str().ok_or("bin op is not a string")?,
        )?)),
        ("un", [op]) => Ok(SInst::Un(un_op_from_name(
            op.as_str().ok_or("un op is not a string")?,
        )?)),
        ("trunc", [bits, signed]) => Ok(SInst::Trunc {
            bits: as_u32(bits, "trunc bits")?,
            signed: as_flag(signed, "trunc signed")?,
        }),
        ("lg", [global, indexed]) => Ok(SInst::LoadGlobal {
            global: as_u32(global, "load global")?,
            indexed: as_flag(indexed, "load global indexed")?,
        }),
        ("sg", [global, indexed]) => Ok(SInst::StoreGlobal {
            global: as_u32(global, "store global")?,
            indexed: as_flag(indexed, "store global indexed")?,
        }),
        ("ldi", []) => Ok(SInst::LoadInd),
        ("sti", []) => Ok(SInst::StoreInd),
        ("pga", [global]) => Ok(SInst::PushGlobalAddr {
            global: as_u32(global, "push global address")?,
        }),
        ("psa", [s]) => Ok(SInst::PushSlotAddr(as_u32(s, "push slot address")?)),
        ("j", [t]) => Ok(SInst::Jump {
            target: as_u32(t, "jump target")?,
        }),
        ("bz", [t]) => Ok(SInst::BranchZero {
            target: as_u32(t, "bz target")?,
        }),
        ("bnz", [t]) => Ok(SInst::BranchNonZero {
            target: as_u32(t, "bnz target")?,
        }),
        ("call", [target, argc, has_ret]) => Ok(SInst::Call {
            target: match target {
                Json::Null => CallTarget::Sink,
                other => CallTarget::Function(as_u32(other, "call target")?),
            },
            argc: as_u32(argc, "call argc")?,
            has_ret: as_flag(has_ret, "call has_ret")?,
        }),
        ("ret", [has_value]) => Ok(SInst::Ret {
            has_value: as_flag(has_value, "ret has_value")?,
        }),
        (tag, _) => Err(format!("unknown stack instruction `{tag}`")),
    }
}

fn write_stack_program(w: &mut JsonWriter, program: &StackProgram) {
    w.begin_obj();
    w.key("backend");
    w.str("stack");
    w.key("functions");
    w.begin_arr();
    for f in &program.functions {
        w.begin_obj();
        w.key("name");
        w.str(&f.name);
        w.key("code");
        w.begin_arr();
        for &inst in &f.code {
            write_sinst(w, inst);
        }
        w.end_arr();
        w.key("frame_slots");
        w.u64(f.frame_slots.into());
        w.key("param_base");
        w.u64(f.param_base.into());
        w.key("base_address");
        w.u64(f.base_address);
        w.end_obj();
    }
    w.end_arr();
    w.key("globals");
    write_globals(w, &program.globals);
    w.key("entry");
    w.u64(program.entry.into());
    w.end_obj();
}

fn stack_program_from_json(json: &Json) -> Result<StackProgram, DecodeError> {
    let functions = arr_field(json, "functions")?
        .iter()
        .map(|f| {
            Ok(SFunction {
                name: str_field(f, "name")?.to_owned(),
                code: arr_field(f, "code")?
                    .iter()
                    .map(sinst_from_json)
                    .collect::<Result<_, _>>()?,
                frame_slots: u32_field(f, "frame_slots")?,
                param_base: u32_field(f, "param_base")?,
                base_address: u64_field(f, "base_address")?,
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let globals = globals_from_json(json)?;
    let entry = u32_field(json, "entry")?;
    if (entry as usize) >= functions.len() {
        return err("entry function index out of range");
    }
    // Cross-reference instruction operands so a checksum-valid but
    // inconsistent file is rejected here instead of panicking the VM.
    let function_count = functions.len();
    let global_count = globals.len();
    for function in &functions {
        for inst in &function.code {
            match *inst {
                SInst::PushReg(r) | SInst::PopReg(r)
                    if usize::from(r) >= holes_machine::STACK_NUM_REGS =>
                {
                    return err("stack instruction register out of range");
                }
                SInst::Call {
                    target: CallTarget::Function(f),
                    ..
                } if (f as usize) >= function_count => {
                    return err("call target out of range");
                }
                SInst::LoadGlobal { global, .. }
                | SInst::StoreGlobal { global, .. }
                | SInst::PushGlobalAddr { global }
                    if (global as usize) >= global_count =>
                {
                    return err("global index out of range");
                }
                _ => {}
            }
        }
    }
    Ok(StackProgram {
        functions,
        globals,
        entry,
    })
}

/// Reject decoded debug information whose location descriptions name
/// registers the executable's backend does not have: the debugger reads
/// registers through an infallible accessor, so an out-of-range index from
/// a tampered (checksum-recomputed) store file must never reach it.
fn validate_location_registers(debug: &DebugInfo, reg_limit: usize) -> Result<(), DecodeError> {
    for (_, die) in debug.iter() {
        for (_, value) in &die.attrs {
            if let AttrValue::LocList(entries) = value {
                for entry in entries {
                    let register = match entry.location {
                        Location::Register(r) => Some(r),
                        Location::Composite { reg, .. } => Some(reg),
                        _ => None,
                    };
                    if register.is_some_and(|r| usize::from(r) >= reg_limit) {
                        return err("location register out of range for the backend");
                    }
                }
            }
        }
    }
    Ok(())
}

/// Write a backend's machine code. Register programs keep the pre-backend
/// object shape (no tag), so existing store files stay valid byte-for-byte;
/// stack and frame programs carry a `"backend"` marker.
fn write_code(w: &mut JsonWriter, code: &MachineCode) {
    match code {
        MachineCode::Reg(program) => write_machine(w, program, None),
        MachineCode::Stack(program) => write_stack_program(w, program),
        // Same register-ISA object shape, distinguished only by the tag.
        MachineCode::Frame(program) => write_machine(w, program, Some("frame")),
    }
}

fn code_from_json(json: &Json) -> Result<MachineCode, DecodeError> {
    match json.get("backend") {
        None => Ok(MachineCode::Reg(machine_from_json(json)?)),
        Some(tag) if tag.as_str() == Some("stack") => {
            Ok(MachineCode::Stack(stack_program_from_json(json)?))
        }
        Some(tag) if tag.as_str() == Some("frame") => {
            Ok(MachineCode::Frame(machine_from_json(json)?))
        }
        Some(_) => err("unknown machine-code backend tag"),
    }
}

// -------------------------------------------------------------- locations

fn write_location(w: &mut JsonWriter, location: Location) {
    match location {
        Location::Register(r) => write_tagged(w, "reg", |w| w.u64(r.into())),
        Location::FrameSlot(s) => write_tagged(w, "slot", |w| w.u64(s.into())),
        Location::GlobalAddress(a) => write_tagged(w, "addr", |w| w.u64(a)),
        Location::ConstValue(c) => write_tagged(w, "const", |w| w.i64(c)),
        Location::Empty => write_tagged(w, "empty", |_| {}),
        Location::FrameBase { offset } => write_tagged(w, "fb", |w| w.i64(offset.into())),
        Location::Composite { reg, offset, deref } => write_tagged(w, "cx", |w| {
            w.u64(reg.into());
            w.i64(offset);
            w.bool(deref);
        }),
    }
}

fn location_from_json(json: &Json) -> Result<Location, DecodeError> {
    match tagged(json, "location")? {
        ("reg", [r]) => Ok(Location::Register(as_reg(r, "location register")?)),
        ("slot", [s]) => Ok(Location::FrameSlot(as_u64(s, "location slot")? as u32)),
        ("addr", [a]) => Ok(Location::GlobalAddress(as_u64(a, "location address")?)),
        ("const", [c]) => Ok(Location::ConstValue(as_i64(c, "location constant")?)),
        ("empty", []) => Ok(Location::Empty),
        ("fb", [offset]) => Ok(Location::FrameBase {
            offset: as_i64(offset, "frame-base offset")?
                .try_into()
                .map_err(|_| "frame-base offset out of range".to_owned())?,
        }),
        ("cx", [reg, offset, deref]) => Ok(Location::Composite {
            reg: as_reg(reg, "composite register")?,
            offset: as_i64(offset, "composite offset")?,
            deref: deref.as_bool().ok_or("composite deref is not a boolean")?,
        }),
        _ => err("unknown location shape"),
    }
}

fn write_loclist(w: &mut JsonWriter, entries: &[LocListEntry]) {
    w.begin_arr();
    for entry in entries {
        w.begin_arr();
        w.u64(entry.start);
        w.u64(entry.end);
        write_location(w, entry.location);
        w.end_arr();
    }
    w.end_arr();
}

fn loclist_from_json(json: &Json) -> Result<Vec<LocListEntry>, DecodeError> {
    json.as_arr()
        .ok_or("location list is not an array")?
        .iter()
        .map(|e| match e.as_arr() {
            Some([start, end, location]) => Ok(LocListEntry::new(
                as_u64(start, "loclist start")?,
                as_u64(end, "loclist end")?,
                location_from_json(location)?,
            )),
            _ => err("location list entry is not a triple"),
        })
        .collect()
}

// ------------------------------------------------------------------- DIEs

fn die_tag_name(tag: DieTag) -> &'static str {
    match tag {
        DieTag::CompileUnit => "cu",
        DieTag::Subprogram => "sub",
        DieTag::InlinedSubroutine => "inl",
        DieTag::LexicalBlock => "blk",
        DieTag::Variable => "var",
        DieTag::FormalParameter => "par",
    }
}

fn die_tag_from_name(name: &str) -> Result<DieTag, DecodeError> {
    [
        DieTag::CompileUnit,
        DieTag::Subprogram,
        DieTag::InlinedSubroutine,
        DieTag::LexicalBlock,
        DieTag::Variable,
        DieTag::FormalParameter,
    ]
    .into_iter()
    .find(|&t| die_tag_name(t) == name)
    .ok_or_else(|| format!("unknown DIE tag `{name}`"))
}

fn attr_name(attr: Attr) -> &'static str {
    match attr {
        Attr::Name => "name",
        Attr::LowPc => "low_pc",
        Attr::HighPc => "high_pc",
        Attr::DeclLine => "decl_line",
        Attr::ConstValue => "const_value",
        Attr::Location => "location",
        Attr::AbstractOrigin => "origin",
        Attr::CallLine => "call_line",
        Attr::External => "external",
        Attr::FrameBase => "frame_base",
    }
}

fn attr_from_name(name: &str) -> Result<Attr, DecodeError> {
    [
        Attr::Name,
        Attr::LowPc,
        Attr::HighPc,
        Attr::DeclLine,
        Attr::ConstValue,
        Attr::Location,
        Attr::AbstractOrigin,
        Attr::CallLine,
        Attr::External,
        Attr::FrameBase,
    ]
    .into_iter()
    .find(|&a| attr_name(a) == name)
    .ok_or_else(|| format!("unknown attribute `{name}`"))
}

fn write_attr_value(w: &mut JsonWriter, value: &AttrValue) {
    match value {
        AttrValue::Text(s) => write_tagged(w, "text", |w| w.str(s)),
        AttrValue::Addr(a) => write_tagged(w, "addr", |w| w.u64(*a)),
        AttrValue::Unsigned(u) => write_tagged(w, "u", |w| w.u64(*u)),
        AttrValue::Signed(s) => write_tagged(w, "s", |w| w.i64(*s)),
        AttrValue::Flag(b) => write_tagged(w, "flag", |w| w.bool(*b)),
        AttrValue::Ref(d) => write_tagged(w, "ref", |w| w.u64(d.0 as u64)),
        AttrValue::LocList(entries) => write_tagged(w, "loc", |w| write_loclist(w, entries)),
    }
}

fn attr_value_from_json(json: &Json) -> Result<AttrValue, DecodeError> {
    match tagged(json, "attribute value")? {
        ("text", [s]) => Ok(AttrValue::Text(
            s.as_str()
                .ok_or("text attribute is not a string")?
                .to_owned(),
        )),
        ("addr", [a]) => Ok(AttrValue::Addr(as_u64(a, "address attribute")?)),
        ("u", [u]) => Ok(AttrValue::Unsigned(as_u64(u, "unsigned attribute")?)),
        ("s", [s]) => Ok(AttrValue::Signed(as_i64(s, "signed attribute")?)),
        ("flag", [b]) => Ok(AttrValue::Flag(
            b.as_bool().ok_or("flag attribute is not a boolean")?,
        )),
        ("ref", [d]) => Ok(AttrValue::Ref(DieId(as_u64(d, "DIE reference")? as usize))),
        ("loc", [entries]) => Ok(AttrValue::LocList(loclist_from_json(entries)?)),
        _ => err("unknown attribute value shape"),
    }
}

fn write_debug_info(w: &mut JsonWriter, debug: &DebugInfo) {
    w.begin_obj();
    w.key("source_name");
    w.str(&debug.source_name);
    w.key("dies");
    w.begin_arr();
    for (_, die) in debug.iter() {
        w.begin_obj();
        w.key("tag");
        w.str(die_tag_name(die.tag));
        w.key("attrs");
        w.begin_arr();
        for (attr, value) in &die.attrs {
            w.begin_arr();
            w.str(attr_name(*attr));
            write_attr_value(w, value);
            w.end_arr();
        }
        w.end_arr();
        w.key("children");
        w.begin_arr();
        for child in &die.children {
            w.u64(child.0 as u64);
        }
        w.end_arr();
        w.key("parent");
        write_opt_u64(w, die.parent.map(|p| p.0 as u64));
        w.end_obj();
    }
    w.end_arr();
    w.key("line_table");
    w.begin_arr();
    for row in debug.line_table.rows() {
        w.begin_arr();
        w.u64(row.address);
        w.u64(row.line.into());
        w.bool(row.is_stmt);
        w.end_arr();
    }
    w.end_arr();
    w.end_obj();
}

fn debug_info_from_json(json: &Json) -> Result<DebugInfo, DecodeError> {
    let dies = arr_field(json, "dies")?
        .iter()
        .map(|die| {
            Ok(Die {
                tag: die_tag_from_name(str_field(die, "tag")?)?,
                attrs: arr_field(die, "attrs")?
                    .iter()
                    .map(|pair| match pair.as_arr() {
                        Some([attr, value]) => Ok((
                            attr_from_name(attr.as_str().ok_or("attribute name is not a string")?)?,
                            attr_value_from_json(value)?,
                        )),
                        _ => err("attribute is not a pair"),
                    })
                    .collect::<Result<_, DecodeError>>()?,
                children: arr_field(die, "children")?
                    .iter()
                    .map(|c| Ok(DieId(as_u64(c, "child id")? as usize)))
                    .collect::<Result<_, DecodeError>>()?,
                parent: match get(die, "parent")? {
                    Json::Null => None,
                    other => Some(DieId(as_u64(other, "parent id")? as usize)),
                },
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let mut line_table = LineTable::new();
    for row in arr_field(json, "line_table")? {
        match row.as_arr() {
            Some([address, line, is_stmt]) => line_table.push(LineRow {
                address: as_u64(address, "line row address")?,
                line: as_u64(line, "line row line")? as u32,
                is_stmt: is_stmt.as_bool().ok_or("line row is_stmt not boolean")?,
            }),
            _ => return err("line table row is not a triple"),
        }
    }
    DebugInfo::from_raw_parts(dies, line_table, str_field(json, "source_name")?.to_owned())
        .ok_or_else(|| "DIE tree fails its structural invariants".to_owned())
}

// --------------------------------------------------------- configurations

fn write_config(w: &mut JsonWriter, config: &CompilerConfig) {
    w.begin_obj();
    w.key("personality");
    w.str(config.personality.name());
    w.key("version");
    w.str(config.version_name());
    w.key("level");
    w.str(config.level.flag());
    w.key("disabled_passes");
    write_strings(w, &config.disabled_passes);
    w.key("pass_budget");
    write_opt_u64(w, config.pass_budget.map(|budget| budget as u64));
    w.key("disable_defects");
    w.bool(config.disable_defects);
    // Like the fingerprint encoding: only a non-default backend extends the
    // shape, keeping register-backend store files byte-identical.
    if config.backend != holes_compiler::BackendKind::Reg {
        w.key("backend");
        w.str(config.backend.name());
    }
    w.end_obj();
}

fn config_from_json(json: &Json) -> Result<CompilerConfig, DecodeError> {
    let personality: Personality = str_field(json, "personality")?
        .parse()
        .map_err(|_| "unknown personality".to_owned())?;
    let version = personality
        .version_index(str_field(json, "version")?)
        .ok_or("unknown compiler version")?;
    let level: OptLevel = str_field(json, "level")?
        .parse()
        .map_err(|_| "unknown optimization level".to_owned())?;
    let mut config = CompilerConfig::new(personality, level).with_version(version);
    for pass in arr_field(json, "disabled_passes")? {
        config = config.with_disabled_pass(pass.as_str().ok_or("pass name is not a string")?);
    }
    config.pass_budget = match get(json, "pass_budget")? {
        Json::Null => None,
        other => Some(other.as_usize().ok_or("pass budget is not a usize")?),
    };
    config.disable_defects = bool_field(json, "disable_defects")?;
    if let Some(backend) = json.get("backend") {
        config.backend = backend
            .as_str()
            .and_then(|name| name.parse().ok())
            .ok_or("unknown backend")?;
    }
    Ok(config)
}

// ------------------------------------------------------------ executables

/// The compact JSON text of a whole executable (machine program, debug
/// information, producing configuration, and pipeline report).
pub(super) fn executable_to_json(executable: &Executable) -> String {
    let mut out = String::new();
    let w = &mut JsonWriter::new(&mut out);
    w.begin_obj();
    w.key("machine");
    write_code(w, &executable.machine);
    w.key("debug");
    write_debug_info(w, &executable.debug);
    w.key("config");
    write_config(w, &executable.config);
    w.key("report");
    w.begin_obj();
    w.key("passes_run");
    write_strings(w, &executable.report.passes_run);
    w.key("defects_applied");
    write_strings(w, &executable.report.defects_applied);
    w.end_obj();
    w.end_obj();
    out
}

/// Decode an executable written by [`executable_to_json`].
pub(super) fn executable_from_json(json: &Json) -> Result<Executable, DecodeError> {
    let report = get(json, "report")?;
    let strings = |key: &str| -> Result<Vec<String>, DecodeError> {
        arr_field(report, key)?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("`{key}` entry is not a string"))
            })
            .collect()
    };
    let machine = code_from_json(get(json, "machine")?)?;
    let config = config_from_json(get(json, "config")?)?;
    if machine.backend() != config.backend {
        return err("machine code and configuration disagree on the backend");
    }
    let debug = debug_info_from_json(get(json, "debug")?)?;
    let reg_limit = match machine.backend() {
        holes_machine::BackendKind::Reg | holes_machine::BackendKind::Frame => {
            holes_machine::NUM_REGS
        }
        holes_machine::BackendKind::Stack => holes_machine::STACK_NUM_REGS,
    };
    validate_location_registers(&debug, reg_limit)?;
    Ok(Executable {
        machine,
        debug,
        config,
        report: PipelineReport {
            passes_run: strings("passes_run")?,
            defects_applied: strings("defects_applied")?,
        },
    })
}

// ----------------------------------------------------------------- traces

/// The compact JSON text of a debug trace (stops in execution order plus
/// the steppable-line set; the reached-line index is derivable and not
/// stored).
pub(super) fn trace_to_json(trace: &DebugTrace) -> String {
    let mut out = String::new();
    let w = &mut JsonWriter::new(&mut out);
    w.begin_obj();
    w.key("stops");
    w.begin_arr();
    for stop in &trace.stops {
        w.begin_obj();
        w.key("line");
        w.u64(stop.line.into());
        w.key("address");
        w.u64(stop.address);
        w.key("function");
        w.str(&stop.function);
        w.key("variables");
        w.begin_arr();
        for variable in &stop.variables {
            w.begin_arr();
            w.str(&variable.name);
            match variable.availability {
                Availability::Available(value) => w.i64(value),
                Availability::OptimizedOut => w.null(),
            }
            w.end_arr();
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    w.key("steppable_lines");
    w.begin_arr();
    for &line in &trace.steppable_lines {
        w.u64(line.into());
    }
    w.end_arr();
    w.end_obj();
    out
}

/// Decode a trace written by [`trace_to_json`], rebuilding the reached-line
/// index exactly as the live debugger does (first stop per line wins).
pub(super) fn trace_from_json(json: &Json) -> Result<DebugTrace, DecodeError> {
    let stops = arr_field(json, "stops")?
        .iter()
        .map(|stop| {
            Ok(LineStop {
                line: u32_field(stop, "line")?,
                address: u64_field(stop, "address")?,
                function: str_field(stop, "function")?.into(),
                variables: arr_field(stop, "variables")?
                    .iter()
                    .map(|v| match v.as_arr() {
                        Some([name, value]) => Ok(VarView {
                            name: name.as_str().ok_or("variable name is not a string")?.into(),
                            availability: match value {
                                Json::Null => Availability::OptimizedOut,
                                other => Availability::Available(as_i64(other, "variable value")?),
                            },
                        }),
                        _ => err("variable is not a pair"),
                    })
                    .collect::<Result<_, DecodeError>>()?,
            })
        })
        .collect::<Result<Vec<LineStop>, DecodeError>>()?;
    let steppable_lines = arr_field(json, "steppable_lines")?
        .iter()
        .map(|l| Ok(as_u64(l, "steppable line")? as u32))
        .collect::<Result<Vec<u32>, DecodeError>>()?;
    let mut reached = std::collections::BTreeMap::new();
    for (index, stop) in stops.iter().enumerate() {
        reached.entry(stop.line).or_insert(index);
    }
    Ok(DebugTrace {
        stops,
        steppable_lines,
        reached,
    })
}

// ------------------------------------------------------------- violations

/// The compact JSON text of a full violation set.
pub(super) fn violations_to_json(violations: &[Violation]) -> String {
    let mut out = String::new();
    let w = &mut JsonWriter::new(&mut out);
    w.begin_arr();
    for v in violations {
        w.begin_obj();
        w.key("conjecture");
        w.str(&v.conjecture.to_string());
        w.key("line");
        w.u64(v.line.into());
        w.key("variable");
        w.str(&v.variable);
        w.key("function");
        w.u64(v.function.0 as u64);
        w.key("observed");
        w.str(v.observed.name());
        w.end_obj();
    }
    w.end_arr();
    out
}

/// Decode a violation set written by [`violations_to_json`].
pub(super) fn violations_from_json(json: &Json) -> Result<Vec<Violation>, DecodeError> {
    json.as_arr()
        .ok_or("violation set is not an array")?
        .iter()
        .map(|v| {
            let observed: Observed = str_field(v, "observed")?
                .parse()
                .map_err(|_| "unknown observed state".to_owned())?;
            Ok(Violation {
                conjecture: str_field(v, "conjecture")?
                    .parse()
                    .map_err(|_| "unknown conjecture".to_owned())?,
                line: u32_field(v, "line")?,
                variable: str_field(v, "variable")?.into(),
                function: FunctionId(usize_field(v, "function")?),
                observed,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use holes_compiler::compile;
    use holes_compiler::BackendKind;
    use holes_debugger::{trace, DebuggerKind};
    use holes_progen::ProgramGenerator;
    use proptest::prelude::*;

    use crate::Subject;

    fn parsed(text: &str) -> Json {
        Json::parse(text).expect("writers emit valid JSON")
    }

    fn sample_executables() -> Vec<Executable> {
        let generated = ProgramGenerator::from_seed(11).generate();
        [
            CompilerConfig::new(Personality::Ccg, OptLevel::O0),
            CompilerConfig::new(Personality::Ccg, OptLevel::O3),
            CompilerConfig::new(Personality::Lcc, OptLevel::O2)
                .with_disabled_pass("gvn")
                .with_pass_budget(4),
            // Stack-backend executables round-trip too (tagged machine
            // object, frame-base/composite locations, config backend).
            CompilerConfig::new(Personality::Lcc, OptLevel::O2)
                .with_backend(holes_compiler::BackendKind::Stack),
            CompilerConfig::new(Personality::Ccg, OptLevel::Og)
                .with_backend(holes_compiler::BackendKind::Stack)
                .without_defects(),
        ]
        .iter()
        .map(|config| compile(&generated.program, config))
        .collect()
    }

    #[test]
    fn executables_round_trip_exactly() {
        for executable in sample_executables() {
            let encoded = executable_to_json(&executable);
            let decoded = executable_from_json(&parsed(&encoded)).expect("decode");
            assert_eq!(decoded.machine, executable.machine);
            assert_eq!(decoded.debug, executable.debug);
            assert_eq!(decoded.config, executable.config);
            assert_eq!(decoded.report.passes_run, executable.report.passes_run);
            assert_eq!(
                decoded.report.defects_applied,
                executable.report.defects_applied
            );
            // And the re-encoding is byte-identical (determinism).
            assert_eq!(executable_to_json(&decoded), encoded);
        }
    }

    #[test]
    fn traces_round_trip_with_rebuilt_reached_index() {
        for executable in sample_executables() {
            for kind in [DebuggerKind::GdbLike, DebuggerKind::LldbLike] {
                let original = trace(&executable, kind);
                let encoded = trace_to_json(&original);
                let decoded = trace_from_json(&parsed(&encoded)).expect("decode");
                assert_eq!(decoded.stops, original.stops);
                assert_eq!(decoded.steppable_lines, original.steppable_lines);
                assert_eq!(decoded.reached, original.reached);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every writer's text is canonical — exactly what
        /// `Json::to_compact` spells for its own parse — and decodes back
        /// to the artifact it was written from, over random programs,
        /// personalities, levels, backends and configuration variants.
        /// Canonical text is what makes the store's checksum over the raw
        /// payload bytes equal to a checksum over the re-serialized
        /// payload.
        #[test]
        fn writers_emit_canonical_text_that_decodes_to_the_original(
            seed in 0u64..1_000_000,
            personality in 0usize..2,
            level in 0usize..6,
            backend in 0usize..3,
            variant in 0usize..4,
        ) {
            let personality = [Personality::Ccg, Personality::Lcc][personality];
            let levels = personality.levels();
            let backend = [BackendKind::Reg, BackendKind::Stack, BackendKind::Frame][backend];
            let config = CompilerConfig::new(personality, levels[level % levels.len()])
                .with_backend(backend);
            let config = match variant {
                0 => config,
                1 => config.with_pass_budget(seed as usize % 8),
                2 => config.with_disabled_pass("gvn"),
                _ => config.without_defects(),
            };
            let subject = Subject::from_seed(seed);

            let executable = subject.compile(&config);
            let encoded = executable_to_json(&executable);
            prop_assert_eq!(&parsed(&encoded).to_compact(), &encoded);
            prop_assert_eq!(executable_from_json(&parsed(&encoded)).expect("decode"), executable);

            let trace = subject.trace(&config);
            let encoded = trace_to_json(&trace);
            prop_assert_eq!(&parsed(&encoded).to_compact(), &encoded);
            prop_assert_eq!(trace_from_json(&parsed(&encoded)).expect("decode"), trace);

            let violations = subject.violations(&config);
            let encoded = violations_to_json(&violations);
            prop_assert_eq!(&parsed(&encoded).to_compact(), &encoded);
            prop_assert_eq!(
                violations_from_json(&parsed(&encoded)).expect("decode"),
                violations
            );
        }
    }

    #[test]
    fn violation_sets_round_trip() {
        let violations = vec![Violation {
            conjecture: holes_core::Conjecture::C2,
            line: 7,
            variable: "x".into(),
            function: FunctionId(0),
            observed: Observed::OptimizedOut,
        }];
        let encoded = violations_to_json(&violations);
        let decoded = violations_from_json(&parsed(&encoded)).expect("decode");
        assert_eq!(decoded, violations);
        assert_eq!(violations_from_json(&Json::Arr(vec![])).unwrap(), vec![]);
    }

    #[test]
    fn locations_beyond_the_backend_register_file_are_rejected() {
        // A checksum-valid envelope naming a register the stack VM does not
        // have must be rejected at decode time — the debugger's register
        // accessor is infallible, so this is the last line of defence.
        let mut executable = sample_executables().pop().unwrap();
        assert!(executable.machine.as_stack().is_some());
        let root = executable.debug.root();
        executable.debug.set_attr(
            root,
            Attr::Location,
            AttrValue::LocList(vec![LocListEntry::new(
                0,
                u64::MAX,
                Location::Register(holes_machine::STACK_NUM_REGS as u8),
            )]),
        );
        let encoded = parsed(&executable_to_json(&executable));
        assert!(executable_from_json(&encoded).is_err());
        // The same register index is fine on the register backend.
        let mut reg_exe = sample_executables().swap_remove(0);
        assert!(reg_exe.machine.as_reg().is_some());
        let root = reg_exe.debug.root();
        reg_exe.debug.set_attr(
            root,
            Attr::Location,
            AttrValue::LocList(vec![LocListEntry::new(
                0,
                u64::MAX,
                Location::Register(holes_machine::STACK_NUM_REGS as u8),
            )]),
        );
        assert!(executable_from_json(&parsed(&executable_to_json(&reg_exe))).is_ok());
    }

    #[test]
    fn stack_programs_with_dangling_operands_are_rejected() {
        let executable = sample_executables().pop().unwrap();
        let good = executable_to_json(&executable);
        for (needle, replacement) in [
            ("[\"pr\",0]", "[\"pr\",11]"),     // register beyond the file
            ("[\"call\",0,", "[\"call\",99,"), // call target out of range
            ("[\"sg\",0,", "[\"sg\",99,"),     // global index out of range
        ] {
            let bad = good.replace(needle, replacement);
            if bad == good {
                continue; // operand shape not present in this sample
            }
            let parsed = Json::parse(&bad).unwrap();
            assert!(
                executable_from_json(&parsed).is_err(),
                "tampered `{needle}` decoded"
            );
        }
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        for bad in [
            Json::Null,
            Json::Obj(vec![]),
            Json::parse(r#"{"machine": 1, "debug": 2, "config": 3, "report": 4}"#).unwrap(),
            Json::parse(r#"{"stops": [{"line": "x"}], "steppable_lines": []}"#).unwrap(),
        ] {
            assert!(executable_from_json(&bad).is_err());
            assert!(trace_from_json(&bad).is_err());
            assert!(violations_from_json(&bad).is_err());
        }
        // Tampered instruction and DIE shapes fail cleanly too.
        let executable = &sample_executables()[1];
        let good = executable_to_json(executable);
        for (needle, replacement) in [
            ("[\"li\",", "[\"xyzzy\","),
            ("\"entry\":", "\"entry\":9"),
            ("\"tag\":\"cu\"", "\"tag\":\"nope\""),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(bad, good, "replacement `{needle}` did not apply");
            let parsed = Json::parse(&bad).unwrap();
            assert!(
                executable_from_json(&parsed).is_err(),
                "tampered `{needle}` decoded"
            );
        }
    }
}
