package prog

import (
	"fmt"

	"wishbranch/internal/isa"
)

// Builder assembles a Program from instructions and symbolic labels.
// Branch targets may be given as label names via the *L constructors;
// Finish resolves them to µop indices.
//
// The zero Builder is ready to use.
type Builder struct {
	code   []isa.Inst
	labels map[string]int
	fixups []fixup // unresolved label references
	starts []int
	entry  string
}

type fixup struct {
	instIdx int
	label   string
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]int)}
}

// Label defines a label at the current position. Defining the same
// label twice panics (builder misuse is a programming error).
func (b *Builder) Label(name string) {
	if b.labels == nil {
		b.labels = make(map[string]int)
	}
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("prog: duplicate label %q", name))
	}
	b.labels[name] = len(b.code)
	b.starts = append(b.starts, len(b.code))
}

// SetEntry sets the entry label. If never called, execution starts at
// µop 0.
func (b *Builder) SetEntry(label string) { b.entry = label }

// Emit appends instructions verbatim (their targets must already be
// resolved µop indices, or be patched via label forms).
func (b *Builder) Emit(insts ...isa.Inst) {
	b.code = append(b.code, insts...)
}

// BrL emits a conditional branch to a label.
func (b *Builder) BrL(guard isa.PReg, label string) {
	b.fixups = append(b.fixups, fixup{len(b.code), label})
	b.code = append(b.code, isa.Br(guard, -1))
}

// JmpL emits an unconditional branch to a label.
func (b *Builder) JmpL(label string) { b.BrL(isa.P0, label) }

// WishL emits a wish branch of the given type to a label.
func (b *Builder) WishL(wt isa.WType, guard isa.PReg, label string) {
	b.fixups = append(b.fixups, fixup{len(b.code), label})
	b.code = append(b.code, isa.WishBr(wt, guard, -1))
}

// CallL emits a call to a label.
func (b *Builder) CallL(label string) {
	b.fixups = append(b.fixups, fixup{len(b.code), label})
	b.code = append(b.code, isa.Call(-1))
}

// Finish resolves labels and returns the program.
func (b *Builder) Finish() (*Program, error) {
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("prog: undefined label %q", f.label)
		}
		b.code[f.instIdx].Target = idx
	}
	entry := 0
	if b.entry != "" {
		idx, ok := b.labels[b.entry]
		if !ok {
			return nil, fmt.Errorf("prog: undefined entry label %q", b.entry)
		}
		entry = idx
	}
	labels := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	p := &Program{
		Code:        append([]isa.Inst(nil), b.code...),
		Entry:       entry,
		Labels:      labels,
		BlockStarts: append([]int(nil), b.starts...),
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustFinish is Finish but panics on error; for tests and examples.
func (b *Builder) MustFinish() *Program {
	p, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return p
}
