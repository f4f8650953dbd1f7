// Package spl implements the Signal Processing Language (SPL) matrix
// formalism the paper uses to derive its FFT decompositions (§II-C, Table I).
//
// A Formula is a (possibly rectangular) linear operator on complex vectors.
// The constructors mirror the paper's constructs:
//
//	I(n), RectI(m, n)      identity and rectangular identity I_{m×n}
//	DFT(n), IDFT(n)        dense-semantics DFT_n (computed via fft1d plans)
//	Diag(d), TwiddleDiag   diagonal matrices D_n^{mn}
//	L(mn, n)               stride permutation L_n^{mn}: in+j → jm+i
//	K(k, n, m)             3D rotation K_m^{k,n} = (L_m^{mk} ⊗ I_n)(I_k ⊗ L_m^{mn})
//	S(n, b, i), G(n, b, i) sliding write/read windows (§III-B)
//	Kron(A, B)             tensor (Kronecker) product A ⊗ B
//	Compose(A, B, …)       matrix product A·B·…
//
// Formulas are interpreted (applied to vectors) following Table I, and a
// Dense conversion exists for exhaustive small-size verification. The fast
// production code path, internal/core's pipelined plan, runs dedicated
// loops; the tests cross-validate it against these formula semantics.
package spl

import (
	"fmt"
	"strings"

	"repro/internal/twiddle"
)

// Formula is a linear operator y = F·x with x of length Cols() and y of
// length Rows(). Apply must not assume dst is zeroed and must not alias src.
type Formula interface {
	Rows() int
	Cols() int
	Apply(dst, src []complex128)
	String() string
}

// checkDims panics unless dst and src match the formula's shape.
func checkDims(f Formula, dst, src []complex128) {
	if len(dst) != f.Rows() || len(src) != f.Cols() {
		panic(fmt.Sprintf("spl: %s applied to dst=%d src=%d, want rows=%d cols=%d",
			f, len(dst), len(src), f.Rows(), f.Cols()))
	}
}

// Eval allocates a result vector and applies f to src.
func Eval(f Formula, src []complex128) []complex128 {
	dst := make([]complex128, f.Rows())
	f.Apply(dst, src)
	return dst
}

// ---------------------------------------------------------------- identity

type identity struct{ n int }

// I returns the n×n identity I_n.
func I(n int) Formula {
	if n < 1 {
		panic(fmt.Sprintf("spl: I(%d)", n))
	}
	return identity{n}
}

func (f identity) Rows() int      { return f.n }
func (f identity) Cols() int      { return f.n }
func (f identity) String() string { return fmt.Sprintf("I_%d", f.n) }
func (f identity) Apply(dst, src []complex128) {
	checkDims(f, dst, src)
	copy(dst, src)
}

// ------------------------------------------------------ rectangular identity

type rectIdentity struct{ m, n int }

// RectI returns the paper's generalized identity I_{m×n}: for m ≥ n it
// embeds an n-vector into the first n slots of an m-vector (zero padding);
// for m < n it truncates to the first m entries.
func RectI(m, n int) Formula {
	if m < 1 || n < 1 {
		panic(fmt.Sprintf("spl: RectI(%d, %d)", m, n))
	}
	if m == n {
		return identity{n}
	}
	return rectIdentity{m, n}
}

func (f rectIdentity) Rows() int      { return f.m }
func (f rectIdentity) Cols() int      { return f.n }
func (f rectIdentity) String() string { return fmt.Sprintf("I_{%dx%d}", f.m, f.n) }
func (f rectIdentity) Apply(dst, src []complex128) {
	checkDims(f, dst, src)
	k := f.m
	if f.n < k {
		k = f.n
	}
	copy(dst[:k], src[:k])
	for i := k; i < f.m; i++ {
		dst[i] = 0
	}
}

// ----------------------------------------------------------------- diagonal

type diag struct {
	d    []complex128
	name string
}

// Diag returns the diagonal matrix with the given entries.
func Diag(d []complex128) Formula {
	if len(d) == 0 {
		panic("spl: Diag with empty diagonal")
	}
	cp := append([]complex128(nil), d...)
	return diag{cp, fmt.Sprintf("diag_%d", len(cp))}
}

// TwiddleDiag returns D_n^{mn}, the Cooley–Tukey twiddle diagonal with entry
// i·n+j = ω_{mn}^{i·j}.
func TwiddleDiag(m, n int) Formula {
	return diag{twiddle.Diag(m, n), fmt.Sprintf("D_%d^{%d}", n, m*n)}
}

func (f diag) Rows() int      { return len(f.d) }
func (f diag) Cols() int      { return len(f.d) }
func (f diag) String() string { return f.name }
func (f diag) Apply(dst, src []complex128) {
	checkDims(f, dst, src)
	for i, w := range f.d {
		dst[i] = w * src[i]
	}
}

// -------------------------------------------------------------- permutation

type perm struct {
	// to[i] is the destination index of source element i: dst[to[i]] = src[i].
	to   []int
	name string
}

// Perm returns the permutation mapping source index i to destination to[i].
// The slice must be a valid permutation of 0..len-1.
func Perm(to []int, name string) Formula {
	seen := make([]bool, len(to))
	for _, t := range to {
		if t < 0 || t >= len(to) || seen[t] {
			panic(fmt.Sprintf("spl: Perm %q is not a permutation", name))
		}
		seen[t] = true
	}
	cp := append([]int(nil), to...)
	if name == "" {
		name = fmt.Sprintf("perm_%d", len(cp))
	}
	return perm{cp, name}
}

func (f perm) Rows() int      { return len(f.to) }
func (f perm) Cols() int      { return len(f.to) }
func (f perm) String() string { return f.name }
func (f perm) Apply(dst, src []complex128) {
	checkDims(f, dst, src)
	for i, t := range f.to {
		dst[t] = src[i]
	}
}

// ---------------------------------------------------------------- compose

type compose struct {
	fs []Formula // applied right-to-left: fs[len-1] first
}

// Compose returns the matrix product fs[0]·fs[1]·…·fs[k-1]; the rightmost
// factor is applied to the input first. Adjacent dimensions must chain.
func Compose(fs ...Formula) Formula {
	if len(fs) == 0 {
		panic("spl: Compose of nothing")
	}
	// Flatten nested compositions for readable printing and fewer
	// interface hops.
	var flat []Formula
	for _, f := range fs {
		if c, ok := f.(compose); ok {
			flat = append(flat, c.fs...)
		} else {
			flat = append(flat, f)
		}
	}
	for i := 0; i+1 < len(flat); i++ {
		if flat[i].Cols() != flat[i+1].Rows() {
			panic(fmt.Sprintf("spl: Compose dimension mismatch between %s (cols %d) and %s (rows %d)",
				flat[i], flat[i].Cols(), flat[i+1], flat[i+1].Rows()))
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return compose{flat}
}

func (f compose) Rows() int { return f.fs[0].Rows() }
func (f compose) Cols() int { return f.fs[len(f.fs)-1].Cols() }
func (f compose) String() string {
	parts := make([]string, len(f.fs))
	for i, g := range f.fs {
		parts[i] = g.String()
	}
	return "(" + strings.Join(parts, " · ") + ")"
}
func (f compose) Apply(dst, src []complex128) {
	checkDims(f, dst, src)
	cur := src
	for i := len(f.fs) - 1; i >= 0; i-- {
		g := f.fs[i]
		var out []complex128
		if i == 0 {
			out = dst
		} else {
			out = make([]complex128, g.Rows())
		}
		g.Apply(out, cur)
		cur = out
	}
}

// Factors returns the factors of a composition (or the formula itself).
func Factors(f Formula) []Formula {
	if c, ok := f.(compose); ok {
		return append([]Formula(nil), c.fs...)
	}
	return []Formula{f}
}
