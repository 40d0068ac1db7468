package workload

import (
	"math"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/emu"
)

// TestAllBenchmarksEquivalentAcrossVariants is the central correctness
// check: every benchmark, every input set, all five binary variants
// must compute identical architectural results (accumulators r16/r17).
func TestAllBenchmarksEquivalentAcrossVariants(t *testing.T) {
	for _, b := range All() {
		for _, in := range Inputs() {
			src, mem := b.Build(in, 0.12)
			var refR16, refR17 int64
			var refUops uint64
			for _, v := range compiler.Variants() {
				p, err := compiler.Compile(src, v)
				if err != nil {
					t.Fatalf("%s/%v/%v: compile: %v", b.Name, in, v, err)
				}
				st := emu.New(p)
				mem(st.Mem)
				n, err := st.Run(80_000_000)
				if err != nil {
					t.Fatalf("%s/%v/%v: run: %v", b.Name, in, v, err)
				}
				if v == compiler.NormalBranch {
					refR16, refR17, refUops = st.Regs[16], st.Regs[17], n
					continue
				}
				if st.Regs[16] != refR16 || st.Regs[17] != refR17 {
					t.Errorf("%s/%v/%v: r16=%d r17=%d, want r16=%d r17=%d",
						b.Name, in, v, st.Regs[16], st.Regs[17], refR16, refR17)
				}
				_ = refUops
			}
		}
	}
}

// TestWishBinariesContainWishBranches checks each benchmark's wish
// binary actually has wish branches, and the jjl binary has wish loops.
func TestWishBinariesContainWishBranches(t *testing.T) {
	for _, b := range All() {
		src, _ := b.Build(InputA, DefaultScale)
		jj := compiler.MustCompile(src, compiler.WishJumpJoin)
		if _, wish := jj.StaticCondBranches(); wish == 0 {
			t.Errorf("%s: wish-jj binary has no wish branches", b.Name)
		}
		jjl := compiler.MustCompile(src, compiler.WishJumpJoinLoop)
		_, wishJJL := jjl.StaticCondBranches()
		_, wishJJ := jj.StaticCondBranches()
		if wishJJL <= wishJJ {
			t.Errorf("%s: wish-jjl (%d) should have more wish branches than wish-jj (%d)",
				b.Name, wishJJL, wishJJ)
		}
	}
}

// TestNormalBinaryHasNoWishBranches ensures the baseline really is a
// plain conditional-branch binary.
func TestNormalBinaryHasNoWishBranches(t *testing.T) {
	for _, b := range All() {
		src, _ := b.Build(InputA, DefaultScale)
		for _, v := range []compiler.Variant{compiler.NormalBranch, compiler.BaseDef, compiler.BaseMax} {
			p := compiler.MustCompile(src, v)
			if _, wish := p.StaticCondBranches(); wish != 0 {
				t.Errorf("%s/%v: contains wish branches", b.Name, v)
			}
		}
	}
}

// TestInputsDiffer verifies the three input sets actually produce
// different data (Figure 1 depends on input-driven behaviour change).
func TestInputsDiffer(t *testing.T) {
	for _, b := range All() {
		src, _ := b.Build(InputA, DefaultScale)
		results := make(map[int64]Input)
		for _, in := range Inputs() {
			src2, mem := b.Build(in, DefaultScale)
			p := compiler.MustCompile(src2, compiler.NormalBranch)
			st := emu.New(p)
			mem(st.Mem)
			if _, err := st.Run(200_000_000); err != nil {
				t.Fatalf("%s/%v: %v", b.Name, in, err)
			}
			key := st.Regs[16] ^ st.Regs[17]
			if prev, dup := results[key]; dup {
				t.Errorf("%s: inputs %v and %v produce identical results", b.Name, prev, in)
			}
			results[key] = in
		}
		_ = src
	}
}

// TestParseInput pins the -input spellings the CLIs accept: every
// input set's letter in either case, and nothing else.
func TestParseInput(t *testing.T) {
	cases := []struct {
		name string
		want Input
	}{
		{"A", InputA}, {"a", InputA},
		{"B", InputB}, {"b", InputB},
		{"C", InputC}, {"c", InputC},
	}
	for _, tc := range cases {
		got, err := ParseInput(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseInput(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	if _, err := ParseInput("D"); err == nil {
		t.Error("ParseInput accepted an unknown input")
	}
}

func TestValidateScale(t *testing.T) {
	for _, c := range []struct {
		scale float64
		ok    bool
	}{
		{0, false},
		{-1, false},
		{math.Inf(-1), false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{0.02, true},
		{1.0, true},
	} {
		if err := ValidateScale(c.scale); (err == nil) != c.ok {
			t.Errorf("ValidateScale(%v) = %v, want ok=%v", c.scale, err, c.ok)
		}
	}
}
