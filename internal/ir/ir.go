// Package ir defines a three-address, register-based intermediate
// representation in SSA form for the MiniJava-style language, plus the
// lowering from typed ASTs. The slicers operate on IR instructions:
// every instruction is an SDG node, and each operand use is classified
// as a producer use, a base-pointer use, or a control use — the
// distinction at the heart of thin slicing.
package ir

import (
	"fmt"
	"strings"

	"thinslice/internal/lang/token"
	"thinslice/internal/lang/types"
)

// Program is a whole lowered program.
type Program struct {
	Info     *types.Info
	Methods  []*Method
	MethodOf map[*types.MethodInfo]*Method
	// NumInstrs is the total number of instructions, which also bounds
	// instruction IDs (IDs are program-unique, dense from 0).
	NumInstrs int
	// Diags accumulates malformed constructs found during lowering; a
	// program with diagnostics is not safe to analyze (see Lower).
	Diags     Diagnostics
	instrByID []Instr
}

// InstrByID returns the instruction with the given program-unique ID.
func (p *Program) InstrByID(id int) Instr { return p.instrByID[id] }

// Method is a lowered method body in SSA form.
type Method struct {
	Sig    *types.MethodInfo
	Blocks []*Block // Blocks[0] is the entry
	Params []*Param // this (for instance methods) followed by declared params
	nextID int      // register numbering within the method
}

// Entry returns the entry block.
func (m *Method) Entry() *Block { return m.Blocks[0] }

// Name returns the qualified method name.
func (m *Method) Name() string { return m.Sig.QualifiedName() }

// Instrs calls f for every instruction in the method.
func (m *Method) Instrs(f func(Instr)) {
	for _, b := range m.Blocks {
		for _, ins := range b.Instrs {
			f(ins)
		}
	}
}

// Block is a basic block.
type Block struct {
	Index  int
	Method *Method
	Instrs []Instr
	Preds  []*Block
	Succs  []*Block
}

func (b *Block) String() string { return fmt.Sprintf("b%d", b.Index) }

// Reg is an SSA virtual register: defined exactly once.
type Reg struct {
	Num    int
	Typ    types.Type
	Def    Instr  // the defining instruction
	Hint   string // source-level name where known
	Method *Method
}

func (r *Reg) String() string {
	if r == nil {
		return "<nil>"
	}
	if r.Hint != "" {
		return fmt.Sprintf("%%%d(%s)", r.Num, r.Hint)
	}
	return fmt.Sprintf("%%%d", r.Num)
}

// Role classifies how an instruction uses an operand, following the
// paper's definition of "direct uses" (§2): producer uses carry value
// flow into the thin slice; base uses (pointer dereferences and array
// indices) are explainer material; control uses feed branches only.
type Role int

// Operand roles.
const (
	RoleProducer Role = iota
	RoleBase
	RoleControl
)

func (r Role) String() string {
	switch r {
	case RoleProducer:
		return "producer"
	case RoleBase:
		return "base"
	case RoleControl:
		return "control"
	}
	return "?"
}

// Instr is a single IR instruction.
type Instr interface {
	// ID returns the program-unique dense instruction ID.
	ID() int
	Pos() token.Pos
	Block() *Block
	// Def returns the register defined by this instruction, or nil.
	Def() *Reg
	// Uses returns operand registers (never nil entries).
	Uses() []*Reg
	// UseRoles returns roles parallel to Uses().
	UseRoles() []Role
	// EachUse visits every operand with its role, in Uses() order,
	// without allocating — the analyses' scan loops run it once per
	// instruction per context clone, where Uses()'s fresh slices were
	// a measurable share of whole-pipeline allocation.
	EachUse(f func(r *Reg, role Role))
	String() string

	setID(int)
	setBlock(*Block)
	replaceUse(old, new *Reg)
}

type instrBase struct {
	id  int
	pos token.Pos
	blk *Block
}

func (i *instrBase) ID() int           { return i.id }
func (i *instrBase) Pos() token.Pos    { return i.pos }
func (i *instrBase) Block() *Block     { return i.blk }
func (i *instrBase) setID(id int)      { i.id = id }
func (i *instrBase) setBlock(b *Block) { i.blk = b }

func repl(slot **Reg, old, new *Reg) {
	if *slot == old {
		*slot = new
	}
}

// Param declares a formal parameter; Index 0 is the receiver for
// instance methods. Param instructions live at the top of the entry
// block and serve as the SDG formal-in nodes.
type Param struct {
	instrBase
	Dst   *Reg
	Index int
	Name  string
}

func (i *Param) Def() *Reg                { return i.Dst }
func (i *Param) Uses() []*Reg             { return nil }
func (i *Param) EachUse(func(*Reg, Role)) {}
func (i *Param) UseRoles() []Role         { return nil }
func (i *Param) replaceUse(old, new *Reg) {}
func (i *Param) String() string {
	return fmt.Sprintf("%s = param#%d %s", i.Dst, i.Index, i.Name)
}

// ConstInt materializes an integer (or char) constant.
type ConstInt struct {
	instrBase
	Dst *Reg
	Val int64
}

func (i *ConstInt) Def() *Reg                { return i.Dst }
func (i *ConstInt) Uses() []*Reg             { return nil }
func (i *ConstInt) EachUse(func(*Reg, Role)) {}
func (i *ConstInt) UseRoles() []Role         { return nil }
func (i *ConstInt) replaceUse(old, new *Reg) {}
func (i *ConstInt) String() string           { return fmt.Sprintf("%s = const %d", i.Dst, i.Val) }

// ConstBool materializes a boolean constant.
type ConstBool struct {
	instrBase
	Dst *Reg
	Val bool
}

func (i *ConstBool) Def() *Reg                { return i.Dst }
func (i *ConstBool) Uses() []*Reg             { return nil }
func (i *ConstBool) EachUse(func(*Reg, Role)) {}
func (i *ConstBool) UseRoles() []Role         { return nil }
func (i *ConstBool) replaceUse(old, new *Reg) {}
func (i *ConstBool) String() string           { return fmt.Sprintf("%s = const %t", i.Dst, i.Val) }

// ConstStr materializes a string constant. Each ConstStr is also an
// allocation site for a String object.
type ConstStr struct {
	instrBase
	Dst *Reg
	Val string
}

func (i *ConstStr) Def() *Reg                { return i.Dst }
func (i *ConstStr) Uses() []*Reg             { return nil }
func (i *ConstStr) EachUse(func(*Reg, Role)) {}
func (i *ConstStr) UseRoles() []Role         { return nil }
func (i *ConstStr) replaceUse(old, new *Reg) {}
func (i *ConstStr) String() string           { return fmt.Sprintf("%s = const %q", i.Dst, i.Val) }

// ConstNull materializes the null reference.
type ConstNull struct {
	instrBase
	Dst *Reg
}

func (i *ConstNull) Def() *Reg                { return i.Dst }
func (i *ConstNull) Uses() []*Reg             { return nil }
func (i *ConstNull) EachUse(func(*Reg, Role)) {}
func (i *ConstNull) UseRoles() []Role         { return nil }
func (i *ConstNull) replaceUse(old, new *Reg) {}
func (i *ConstNull) String() string           { return fmt.Sprintf("%s = null", i.Dst) }

// Copy is a source-level local-to-local assignment (x = y). SSA
// construction would normally elide these, but they are materialized
// so every source copy statement remains a dependence-graph node, as
// in the paper's SDG statement model.
type Copy struct {
	instrBase
	Dst *Reg
	Src *Reg
}

func (i *Copy) Def() *Reg                  { return i.Dst }
func (i *Copy) Uses() []*Reg               { return []*Reg{i.Src} }
func (i *Copy) UseRoles() []Role           { return []Role{RoleProducer} }
func (i *Copy) EachUse(f func(*Reg, Role)) { f(i.Src, RoleProducer) }
func (i *Copy) replaceUse(old, new *Reg)   { repl(&i.Src, old, new) }
func (i *Copy) String() string             { return fmt.Sprintf("%s = copy %s", i.Dst, i.Src) }

// BinOp is an arithmetic, comparison, or equality operation.
type BinOp struct {
	instrBase
	Dst  *Reg
	Op   token.Kind
	X, Y *Reg
}

func (i *BinOp) Def() *Reg                  { return i.Dst }
func (i *BinOp) Uses() []*Reg               { return []*Reg{i.X, i.Y} }
func (i *BinOp) UseRoles() []Role           { return []Role{RoleProducer, RoleProducer} }
func (i *BinOp) EachUse(f func(*Reg, Role)) { f(i.X, RoleProducer); f(i.Y, RoleProducer) }
func (i *BinOp) replaceUse(old, new *Reg) {
	repl(&i.X, old, new)
	repl(&i.Y, old, new)
}
func (i *BinOp) String() string {
	return fmt.Sprintf("%s = %s %s %s", i.Dst, i.X, i.Op, i.Y)
}

// UnOp is !x or -x.
type UnOp struct {
	instrBase
	Dst *Reg
	Op  token.Kind
	X   *Reg
}

func (i *UnOp) Def() *Reg                  { return i.Dst }
func (i *UnOp) Uses() []*Reg               { return []*Reg{i.X} }
func (i *UnOp) UseRoles() []Role           { return []Role{RoleProducer} }
func (i *UnOp) EachUse(f func(*Reg, Role)) { f(i.X, RoleProducer) }
func (i *UnOp) replaceUse(old, new *Reg)   { repl(&i.X, old, new) }
func (i *UnOp) String() string             { return fmt.Sprintf("%s = %s%s", i.Dst, i.Op, i.X) }

// StrKind identifies a string intrinsic.
type StrKind int

// String intrinsic kinds.
const (
	StrConcat StrKind = iota
	StrSubstring
	StrIndexOf
	StrCharAt
	StrLength
	StrEquals
	StrStartsWith
	StrItoa
)

func (k StrKind) String() string {
	switch k {
	case StrConcat:
		return "concat"
	case StrSubstring:
		return "substring"
	case StrIndexOf:
		return "indexOf"
	case StrCharAt:
		return "charAt"
	case StrLength:
		return "length"
	case StrEquals:
		return "equals"
	case StrStartsWith:
		return "startsWith"
	case StrItoa:
		return "itoa"
	}
	return "?"
}

// StrOp applies a string intrinsic. A StrOp producing a string is an
// allocation site for the result String object. All operand uses are
// direct (producer) uses: strings are values, not containers.
type StrOp struct {
	instrBase
	Dst  *Reg
	Op   StrKind
	Args []*Reg
}

func (i *StrOp) Def() *Reg    { return i.Dst }
func (i *StrOp) Uses() []*Reg { return i.Args }
func (i *StrOp) UseRoles() []Role {
	roles := make([]Role, len(i.Args))
	for j := range roles {
		roles[j] = RoleProducer
	}
	return roles
}
func (i *StrOp) EachUse(f func(*Reg, Role)) {
	for _, a := range i.Args {
		f(a, RoleProducer)
	}
}
func (i *StrOp) replaceUse(old, new *Reg) {
	for j := range i.Args {
		repl(&i.Args[j], old, new)
	}
}
func (i *StrOp) String() string {
	parts := make([]string, len(i.Args))
	for j, a := range i.Args {
		parts[j] = a.String()
	}
	return fmt.Sprintf("%s = str.%s(%s)", i.Dst, i.Op, strings.Join(parts, ", "))
}

// Input reads external input (the program's data source). Input
// producing a string is an allocation site.
type Input struct {
	instrBase
	Dst   *Reg
	IsInt bool
}

func (i *Input) Def() *Reg                { return i.Dst }
func (i *Input) Uses() []*Reg             { return nil }
func (i *Input) EachUse(func(*Reg, Role)) {}
func (i *Input) UseRoles() []Role         { return nil }
func (i *Input) replaceUse(old, new *Reg) {}
func (i *Input) String() string {
	if i.IsInt {
		return fmt.Sprintf("%s = inputInt()", i.Dst)
	}
	return fmt.Sprintf("%s = input()", i.Dst)
}

// New allocates an object (an allocation site). The constructor call is
// a separate Call instruction.
type New struct {
	instrBase
	Dst   *Reg
	Class *types.ClassInfo
}

func (i *New) Def() *Reg                { return i.Dst }
func (i *New) Uses() []*Reg             { return nil }
func (i *New) EachUse(func(*Reg, Role)) {}
func (i *New) UseRoles() []Role         { return nil }
func (i *New) replaceUse(old, new *Reg) {}
func (i *New) String() string           { return fmt.Sprintf("%s = new %s", i.Dst, i.Class.Name) }

// NewArray allocates an array. The length operand is a producer use:
// it flows to ArrayLen reads of this array.
type NewArray struct {
	instrBase
	Dst  *Reg
	Elem types.Type
	Len  *Reg
}

func (i *NewArray) Def() *Reg                  { return i.Dst }
func (i *NewArray) Uses() []*Reg               { return []*Reg{i.Len} }
func (i *NewArray) UseRoles() []Role           { return []Role{RoleProducer} }
func (i *NewArray) EachUse(f func(*Reg, Role)) { f(i.Len, RoleProducer) }
func (i *NewArray) replaceUse(old, new *Reg)   { repl(&i.Len, old, new) }
func (i *NewArray) String() string {
	return fmt.Sprintf("%s = new %s[%s]", i.Dst, i.Elem, i.Len)
}

// GetField loads x.f. The base pointer is a base use (excluded from
// thin slices); the produced value arrives via heap edges from SetField.
type GetField struct {
	instrBase
	Dst   *Reg
	Obj   *Reg
	Field *types.FieldInfo
}

func (i *GetField) Def() *Reg                  { return i.Dst }
func (i *GetField) Uses() []*Reg               { return []*Reg{i.Obj} }
func (i *GetField) UseRoles() []Role           { return []Role{RoleBase} }
func (i *GetField) EachUse(f func(*Reg, Role)) { f(i.Obj, RoleBase) }
func (i *GetField) replaceUse(old, new *Reg)   { repl(&i.Obj, old, new) }
func (i *GetField) String() string {
	return fmt.Sprintf("%s = %s.%s", i.Dst, i.Obj, i.Field.QualifiedName())
}

// SetField stores x.f = v.
type SetField struct {
	instrBase
	Obj   *Reg
	Field *types.FieldInfo
	Val   *Reg
}

func (i *SetField) Def() *Reg                  { return nil }
func (i *SetField) Uses() []*Reg               { return []*Reg{i.Obj, i.Val} }
func (i *SetField) UseRoles() []Role           { return []Role{RoleBase, RoleProducer} }
func (i *SetField) EachUse(f func(*Reg, Role)) { f(i.Obj, RoleBase); f(i.Val, RoleProducer) }
func (i *SetField) replaceUse(old, new *Reg) {
	repl(&i.Obj, old, new)
	repl(&i.Val, old, new)
}
func (i *SetField) String() string {
	return fmt.Sprintf("%s.%s = %s", i.Obj, i.Field.QualifiedName(), i.Val)
}

// GetStatic loads a static field (a global location; no base pointer).
type GetStatic struct {
	instrBase
	Dst   *Reg
	Field *types.FieldInfo
}

func (i *GetStatic) Def() *Reg                { return i.Dst }
func (i *GetStatic) Uses() []*Reg             { return nil }
func (i *GetStatic) EachUse(func(*Reg, Role)) {}
func (i *GetStatic) UseRoles() []Role         { return nil }
func (i *GetStatic) replaceUse(old, new *Reg) {}
func (i *GetStatic) String() string {
	return fmt.Sprintf("%s = static %s", i.Dst, i.Field.QualifiedName())
}

// SetStatic stores a static field.
type SetStatic struct {
	instrBase
	Field *types.FieldInfo
	Val   *Reg
}

func (i *SetStatic) Def() *Reg                  { return nil }
func (i *SetStatic) Uses() []*Reg               { return []*Reg{i.Val} }
func (i *SetStatic) UseRoles() []Role           { return []Role{RoleProducer} }
func (i *SetStatic) EachUse(f func(*Reg, Role)) { f(i.Val, RoleProducer) }
func (i *SetStatic) replaceUse(old, new *Reg)   { repl(&i.Val, old, new) }
func (i *SetStatic) String() string {
	return fmt.Sprintf("static %s = %s", i.Field.QualifiedName(), i.Val)
}

// ArrayLoad loads a[i]. Both the array pointer and the index are base
// uses: the paper treats index provenance, like aliasing, as explainer
// material reachable by expansion (§4.1).
type ArrayLoad struct {
	instrBase
	Dst *Reg
	Arr *Reg
	Idx *Reg
}

func (i *ArrayLoad) Def() *Reg                  { return i.Dst }
func (i *ArrayLoad) Uses() []*Reg               { return []*Reg{i.Arr, i.Idx} }
func (i *ArrayLoad) UseRoles() []Role           { return []Role{RoleBase, RoleBase} }
func (i *ArrayLoad) EachUse(f func(*Reg, Role)) { f(i.Arr, RoleBase); f(i.Idx, RoleBase) }
func (i *ArrayLoad) replaceUse(old, new *Reg) {
	repl(&i.Arr, old, new)
	repl(&i.Idx, old, new)
}
func (i *ArrayLoad) String() string {
	return fmt.Sprintf("%s = %s[%s]", i.Dst, i.Arr, i.Idx)
}

// ArrayStore stores a[i] = v.
type ArrayStore struct {
	instrBase
	Arr *Reg
	Idx *Reg
	Val *Reg
}

func (i *ArrayStore) Def() *Reg        { return nil }
func (i *ArrayStore) Uses() []*Reg     { return []*Reg{i.Arr, i.Idx, i.Val} }
func (i *ArrayStore) UseRoles() []Role { return []Role{RoleBase, RoleBase, RoleProducer} }
func (i *ArrayStore) EachUse(f func(*Reg, Role)) {
	f(i.Arr, RoleBase)
	f(i.Idx, RoleBase)
	f(i.Val, RoleProducer)
}
func (i *ArrayStore) replaceUse(old, new *Reg) {
	repl(&i.Arr, old, new)
	repl(&i.Idx, old, new)
	repl(&i.Val, old, new)
}
func (i *ArrayStore) String() string {
	return fmt.Sprintf("%s[%s] = %s", i.Arr, i.Idx, i.Val)
}

// ArrayLen reads a.length. The value flows from the NewArray length
// operand through a pseudo-field; the array pointer is a base use.
type ArrayLen struct {
	instrBase
	Dst *Reg
	Arr *Reg
}

func (i *ArrayLen) Def() *Reg                  { return i.Dst }
func (i *ArrayLen) Uses() []*Reg               { return []*Reg{i.Arr} }
func (i *ArrayLen) UseRoles() []Role           { return []Role{RoleBase} }
func (i *ArrayLen) EachUse(f func(*Reg, Role)) { f(i.Arr, RoleBase) }
func (i *ArrayLen) replaceUse(old, new *Reg)   { repl(&i.Arr, old, new) }
func (i *ArrayLen) String() string             { return fmt.Sprintf("%s = %s.length", i.Dst, i.Arr) }

// Cast is a checkcast: the value flows through (producer use).
type Cast struct {
	instrBase
	Dst    *Reg
	Src    *Reg
	Target types.Type
}

func (i *Cast) Def() *Reg                  { return i.Dst }
func (i *Cast) Uses() []*Reg               { return []*Reg{i.Src} }
func (i *Cast) UseRoles() []Role           { return []Role{RoleProducer} }
func (i *Cast) EachUse(f func(*Reg, Role)) { f(i.Src, RoleProducer) }
func (i *Cast) replaceUse(old, new *Reg)   { repl(&i.Src, old, new) }
func (i *Cast) String() string {
	return fmt.Sprintf("%s = (%s) %s", i.Dst, i.Target, i.Src)
}

// InstanceOf tests the dynamic type of a reference.
type InstanceOf struct {
	instrBase
	Dst   *Reg
	Src   *Reg
	Class *types.ClassInfo
}

func (i *InstanceOf) Def() *Reg                  { return i.Dst }
func (i *InstanceOf) Uses() []*Reg               { return []*Reg{i.Src} }
func (i *InstanceOf) UseRoles() []Role           { return []Role{RoleProducer} }
func (i *InstanceOf) EachUse(f func(*Reg, Role)) { f(i.Src, RoleProducer) }
func (i *InstanceOf) replaceUse(old, new *Reg)   { repl(&i.Src, old, new) }
func (i *InstanceOf) String() string {
	return fmt.Sprintf("%s = %s instanceof %s", i.Dst, i.Src, i.Class.Name)
}

// CallMode distinguishes dispatch behavior.
type CallMode int

// Call modes.
const (
	CallVirtual CallMode = iota // dispatch on the runtime type of Recv
	CallStatic                  // static method, no receiver
	CallCtor                    // constructor invocation (known target)
)

func (m CallMode) String() string {
	switch m {
	case CallVirtual:
		return "virtual"
	case CallStatic:
		return "static"
	case CallCtor:
		return "ctor"
	}
	return "?"
}

// Call invokes a method. Receiver and argument uses are producer uses:
// parameter passing copies values (paper §5.1). The call's Dst is the
// actual-out node for the return value.
type Call struct {
	instrBase
	Dst    *Reg // nil for void calls
	Mode   CallMode
	Callee *types.MethodInfo // statically resolved target (dispatch root)
	Recv   *Reg              // nil for static calls
	Args   []*Reg
}

func (i *Call) Def() *Reg { return i.Dst }
func (i *Call) Uses() []*Reg {
	var uses []*Reg
	if i.Recv != nil {
		uses = append(uses, i.Recv)
	}
	return append(uses, i.Args...)
}
func (i *Call) UseRoles() []Role {
	n := len(i.Args)
	if i.Recv != nil {
		n++
	}
	roles := make([]Role, n)
	for j := range roles {
		roles[j] = RoleProducer
	}
	return roles
}
func (i *Call) EachUse(f func(*Reg, Role)) {
	if i.Recv != nil {
		f(i.Recv, RoleProducer)
	}
	for _, a := range i.Args {
		f(a, RoleProducer)
	}
}
func (i *Call) replaceUse(old, new *Reg) {
	if i.Recv != nil {
		repl(&i.Recv, old, new)
	}
	for j := range i.Args {
		repl(&i.Args[j], old, new)
	}
}
func (i *Call) String() string {
	parts := make([]string, len(i.Args))
	for j, a := range i.Args {
		parts[j] = a.String()
	}
	recv := ""
	if i.Recv != nil {
		recv = i.Recv.String() + "."
	}
	lhs := ""
	if i.Dst != nil {
		lhs = i.Dst.String() + " = "
	}
	return fmt.Sprintf("%s%s call %s%s(%s)", lhs, i.Mode, recv, i.Callee.QualifiedName(), strings.Join(parts, ", "))
}

// Print writes a value to the program's output: a common seed.
type Print struct {
	instrBase
	Val *Reg
}

func (i *Print) Def() *Reg                  { return nil }
func (i *Print) Uses() []*Reg               { return []*Reg{i.Val} }
func (i *Print) UseRoles() []Role           { return []Role{RoleProducer} }
func (i *Print) EachUse(f func(*Reg, Role)) { f(i.Val, RoleProducer) }
func (i *Print) replaceUse(old, new *Reg)   { repl(&i.Val, old, new) }
func (i *Print) String() string             { return fmt.Sprintf("print %s", i.Val) }

// Assert checks a condition; a failing assert is a failure seed, so the
// condition is a producer use (slicing from the assert must reach the
// computation of the asserted value).
type Assert struct {
	instrBase
	Cond *Reg
}

func (i *Assert) Def() *Reg                  { return nil }
func (i *Assert) Uses() []*Reg               { return []*Reg{i.Cond} }
func (i *Assert) UseRoles() []Role           { return []Role{RoleProducer} }
func (i *Assert) EachUse(f func(*Reg, Role)) { f(i.Cond, RoleProducer) }
func (i *Assert) replaceUse(old, new *Reg)   { repl(&i.Cond, old, new) }
func (i *Assert) String() string             { return fmt.Sprintf("assert %s", i.Cond) }

// Return exits the method; the returned value (if any) flows to the
// callers' Call.Dst (a producer edge).
type Return struct {
	instrBase
	Val *Reg // nil for void
}

func (i *Return) Def() *Reg { return nil }
func (i *Return) Uses() []*Reg {
	if i.Val == nil {
		return nil
	}
	return []*Reg{i.Val}
}
func (i *Return) UseRoles() []Role {
	if i.Val == nil {
		return nil
	}
	return []Role{RoleProducer}
}
func (i *Return) EachUse(f func(*Reg, Role)) {
	if i.Val != nil {
		f(i.Val, RoleProducer)
	}
}
func (i *Return) replaceUse(old, new *Reg) {
	if i.Val != nil {
		repl(&i.Val, old, new)
	}
}
func (i *Return) String() string {
	if i.Val == nil {
		return "return"
	}
	return fmt.Sprintf("return %s", i.Val)
}

// Throw raises an exception: control exits the method abruptly.
type Throw struct {
	instrBase
	Val *Reg
}

func (i *Throw) Def() *Reg                  { return nil }
func (i *Throw) Uses() []*Reg               { return []*Reg{i.Val} }
func (i *Throw) UseRoles() []Role           { return []Role{RoleProducer} }
func (i *Throw) EachUse(f func(*Reg, Role)) { f(i.Val, RoleProducer) }
func (i *Throw) replaceUse(old, new *Reg)   { repl(&i.Val, old, new) }
func (i *Throw) String() string             { return fmt.Sprintf("throw %s", i.Val) }

// If branches on a boolean: the condition is a control use.
type If struct {
	instrBase
	Cond *Reg
	Then *Block
	Else *Block
}

func (i *If) Def() *Reg                  { return nil }
func (i *If) Uses() []*Reg               { return []*Reg{i.Cond} }
func (i *If) UseRoles() []Role           { return []Role{RoleControl} }
func (i *If) EachUse(f func(*Reg, Role)) { f(i.Cond, RoleControl) }
func (i *If) replaceUse(old, new *Reg)   { repl(&i.Cond, old, new) }
func (i *If) String() string {
	return fmt.Sprintf("if %s goto %s else %s", i.Cond, i.Then, i.Else)
}

// Goto is an unconditional jump.
type Goto struct {
	instrBase
	Target *Block
}

func (i *Goto) Def() *Reg                { return nil }
func (i *Goto) Uses() []*Reg             { return nil }
func (i *Goto) EachUse(func(*Reg, Role)) {}
func (i *Goto) UseRoles() []Role         { return nil }
func (i *Goto) replaceUse(old, new *Reg) {}
func (i *Goto) String() string           { return fmt.Sprintf("goto %s", i.Target) }

// Phi merges values at a join point; Edges is parallel to Block.Preds.
type Phi struct {
	instrBase
	Dst   *Reg
	Edges []*Reg
}

func (i *Phi) Def() *Reg    { return i.Dst }
func (i *Phi) Uses() []*Reg { return i.Edges }
func (i *Phi) UseRoles() []Role {
	roles := make([]Role, len(i.Edges))
	for j := range roles {
		roles[j] = RoleProducer
	}
	return roles
}
func (i *Phi) EachUse(f func(*Reg, Role)) {
	for _, e := range i.Edges {
		f(e, RoleProducer)
	}
}
func (i *Phi) replaceUse(old, new *Reg) {
	for j := range i.Edges {
		repl(&i.Edges[j], old, new)
	}
}
func (i *Phi) String() string {
	parts := make([]string, len(i.Edges))
	for j, a := range i.Edges {
		parts[j] = a.String()
	}
	return fmt.Sprintf("%s = phi(%s)", i.Dst, strings.Join(parts, ", "))
}

// IsTerminator reports whether ins ends a basic block.
func IsTerminator(ins Instr) bool {
	switch ins.(type) {
	case *If, *Goto, *Return, *Throw:
		return true
	}
	return false
}

// String renders a method body as text, for debugging and golden tests.
func (m *Method) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s:\n", m.Name())
	for _, blk := range m.Blocks {
		preds := make([]string, len(blk.Preds))
		for i, p := range blk.Preds {
			preds[i] = p.String()
		}
		fmt.Fprintf(&b, "%s: ; preds=%s\n", blk, strings.Join(preds, ","))
		for _, ins := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", ins)
		}
	}
	return b.String()
}
