package wasm

import (
	"fmt"
	"math"
	"strconv"
)

// BlockType describes the result type of a block/loop/if. The MVP permits
// either no result or a single value type. The encoding matches the binary
// format (0x40 = empty); the zero value is treated as empty too so that
// instructions without block semantics need not set the field.
type BlockType byte

// BlockEmpty is the block type of a block producing no value.
const BlockEmpty BlockType = 0x40

// BlockOf returns the block type producing a single value of type v.
func BlockOf(v ValueType) BlockType { return BlockType(v) }

// Value returns the single result type and whether one exists.
func (b BlockType) Value() (ValueType, bool) {
	if b == BlockEmpty || b == 0 {
		return 0, false
	}
	return ValueType(b), true
}

// Instr is a single flat instruction. Structured instructions (block, loop,
// if/else) appear inline and are delimited by OpEnd, exactly as in the
// binary format. An Instr is 16 bytes and holds no pointer: a function body
// is one flat array the garbage collector never scans. The immediate fields
// used depend on Op:
//
//	BT     — block result type (block/loop/if)
//	Align  — memarg alignment exponent (loads/stores)
//	Idx    — local/global/function/type index, br/br_if label depth, or
//	         for br_table the index of its targets in Func.BrTables
//	U64    — constant bits (i32/i64/f32/f64 const), or the memarg offset
//	         (loads/stores; read it with Offset)
type Instr struct {
	Op    Opcode
	BT    BlockType
	Align byte
	Idx   uint32
	U64   uint64
}

// MaxAlign is the largest memarg alignment exponent an Instr holds. No
// access is wider than 2^3 bytes, so validation refuses every exponent
// above 3; decoders refuse the ones above MaxAlign outright, so a wide
// exponent can never wrap into a small one.
const MaxAlign = 255

// Convenience constructors for common instructions.

// ConstI32 builds an i32.const instruction.
func ConstI32(v int32) Instr { return Instr{Op: OpI32Const, U64: uint64(uint32(v))} }

// ConstI64 builds an i64.const instruction.
func ConstI64(v int64) Instr { return Instr{Op: OpI64Const, U64: uint64(v)} }

// ConstF32 builds an f32.const instruction.
func ConstF32(v float32) Instr { return Instr{Op: OpF32Const, U64: uint64(math.Float32bits(v))} }

// ConstF64 builds an f64.const instruction.
func ConstF64(v float64) Instr { return Instr{Op: OpF64Const, U64: math.Float64bits(v)} }

// Op1 builds an instruction with no immediates.
func Op1(op Opcode) Instr { return Instr{Op: op} }

// WithIdx builds an instruction with a single index immediate.
func WithIdx(op Opcode, idx uint32) Instr { return Instr{Op: op, Idx: idx} }

// I32Val returns the i32 constant carried by the instruction.
func (in Instr) I32Val() int32 { return int32(uint32(in.U64)) }

// I64Val returns the i64 constant carried by the instruction.
func (in Instr) I64Val() int64 { return int64(in.U64) }

// F32Val returns the f32 constant carried by the instruction.
func (in Instr) F32Val() float32 { return math.Float32frombits(uint32(in.U64)) }

// F64Val returns the f64 constant carried by the instruction.
func (in Instr) F64Val() float64 { return math.Float64frombits(in.U64) }

// Offset returns the memarg offset of a load or store.
func (in Instr) Offset() uint32 { return uint32(in.U64) }

// HasMemarg reports whether the instruction carries a memarg immediate.
func (in Instr) HasMemarg() bool { return in.Op.IsMemAccess() }

// String renders the instruction in text-format style (without nesting). A
// br_table's targets live in its function's BrTables, so String names the
// table by index; the WAT printer renders the targets.
func (in Instr) String() string {
	switch in.Op {
	case OpI32Const:
		return "i32.const " + strconv.FormatInt(int64(in.I32Val()), 10)
	case OpI64Const:
		return "i64.const " + strconv.FormatInt(in.I64Val(), 10)
	case OpF32Const:
		return "f32.const " + formatFloat(float64(in.F32Val()), 32)
	case OpF64Const:
		return "f64.const " + formatFloat(in.F64Val(), 64)
	case OpLocalGet, OpLocalSet, OpLocalTee, OpGlobalGet, OpGlobalSet,
		OpCall, OpBr, OpBrIf:
		return in.Op.String() + " " + strconv.FormatUint(uint64(in.Idx), 10)
	case OpCallIndirect:
		return "call_indirect (type " + strconv.FormatUint(uint64(in.Idx), 10) + ")"
	case OpBrTable:
		return "br_table (table " + strconv.FormatUint(uint64(in.Idx), 10) + ")"
	case OpBlock, OpLoop, OpIf:
		s := in.Op.String()
		if v, ok := in.BT.Value(); ok {
			s += " (result " + v.String() + ")"
		}
		return s
	default:
		if in.HasMemarg() {
			s := in.Op.String()
			if off := in.Offset(); off != 0 {
				s += " offset=" + strconv.FormatUint(uint64(off), 10)
			}
			return s
		}
		return in.Op.String()
	}
}

func formatFloat(f float64, bits int) string {
	if math.IsNaN(f) {
		return "nan"
	}
	if math.IsInf(f, 1) {
		return "inf"
	}
	if math.IsInf(f, -1) {
		return "-inf"
	}
	return strconv.FormatFloat(f, 'g', -1, bits)
}

// CountBodyInstrs counts the executable instructions in a body, excluding
// the structural delimiters end/else that carry no runtime cost in the
// paper's counting model (§3.5: increments are based on the instructions
// contained in a basic block).
func CountBodyInstrs(body []Instr) int {
	n := 0
	for _, in := range body {
		if in.Op == OpEnd || in.Op == OpElse {
			continue
		}
		n++
	}
	return n
}

// StackEffect returns the operand-stack pops and pushes of one dynamic
// execution of op. It covers every opcode whose effect is independent of
// module context; for call/call_indirect (which need the callee signature)
// and for the structured control opcodes (whose effect depends on block
// types and branch arities) it returns ok == false. The interpreter's
// lowering pass uses it to precompute static stack heights.
func (op Opcode) StackEffect() (pop, push int, ok bool) {
	switch op {
	case OpNop:
		return 0, 0, true
	case OpDrop:
		return 1, 0, true
	case OpSelect:
		return 3, 1, true
	case OpLocalGet, OpGlobalGet, OpMemorySize,
		OpI32Const, OpI64Const, OpF32Const, OpF64Const:
		return 0, 1, true
	case OpLocalSet, OpGlobalSet:
		return 1, 0, true
	case OpLocalTee, OpMemoryGrow, OpI32Eqz, OpI64Eqz:
		return 1, 1, true
	}
	switch {
	case op.IsLoad():
		return 1, 1, true
	case op.IsStore():
		return 2, 0, true
	case op >= OpI32Eq && op <= OpF64Ge: // binary comparisons
		return 2, 1, true
	case op >= OpI32Clz && op <= OpI32Popcnt, // unary numerics
		op >= OpI64Clz && op <= OpI64Popcnt,
		op >= OpF32Abs && op <= OpF32Sqrt,
		op >= OpF64Abs && op <= OpF64Sqrt,
		op >= OpI32WrapI64 && op <= OpF64ReinterpretI: // conversions
		return 1, 1, true
	case op >= OpI32Add && op <= OpI32Rotr, // binary numerics
		op >= OpI64Add && op <= OpI64Rotr,
		op >= OpF32Add && op <= OpF32Copysign,
		op >= OpF64Add && op <= OpF64Copysign:
		return 2, 1, true
	}
	return 0, 0, false
}

// ValidateStructure performs a cheap structural check: every block/loop/if
// has a matching end and the body ends exactly once at depth zero.
func ValidateStructure(body []Instr) error {
	depth := 0
	for i, in := range body {
		switch in.Op {
		case OpBlock, OpLoop, OpIf:
			depth++
		case OpElse:
			if depth == 0 {
				return fmt.Errorf("instr %d: else outside if", i)
			}
		case OpEnd:
			depth--
			if depth < 0 {
				if i != len(body)-1 {
					return fmt.Errorf("instr %d: end below depth zero before body end", i)
				}
			}
		}
	}
	if depth != -1 {
		return fmt.Errorf("unbalanced blocks: depth %d at body end", depth)
	}
	if len(body) == 0 || body[len(body)-1].Op != OpEnd {
		return fmt.Errorf("body must terminate with end")
	}
	return nil
}
