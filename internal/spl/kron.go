package spl

import "fmt"

// kron is the tensor product A ⊗ B.
type kron struct {
	a, b Formula
}

// Kron returns the Kronecker (tensor) product A ⊗ B. Identity operands take
// the fast Table-I loop forms: I_m ⊗ B applies B on m contiguous blocks and
// A ⊗ I_n applies A across n interleaved lanes.
func Kron(a, b Formula) Formula {
	return kron{a, b}
}

func (f kron) Rows() int { return f.a.Rows() * f.b.Rows() }
func (f kron) Cols() int { return f.a.Cols() * f.b.Cols() }
func (f kron) String() string {
	return fmt.Sprintf("(%s ⊗ %s)", f.a, f.b)
}

func (f kron) Apply(dst, src []complex128) {
	checkDims(f, dst, src)
	_, aIsI := f.a.(identity)
	_, bIsI := f.b.(identity)
	switch {
	case aIsI && bIsI:
		copy(dst, src)
	case aIsI:
		// I_m ⊗ B: B on contiguous blocks (Table I row 2).
		m := f.a.Rows()
		br, bc := f.b.Rows(), f.b.Cols()
		for i := 0; i < m; i++ {
			f.b.Apply(dst[i*br:(i+1)*br], src[i*bc:(i+1)*bc])
		}
	case bIsI:
		// A ⊗ I_n: A on strided lanes (Table I row 3).
		n := f.b.Rows()
		ar, ac := f.a.Rows(), f.a.Cols()
		in := make([]complex128, ac)
		out := make([]complex128, ar)
		for lane := 0; lane < n; lane++ {
			for i := 0; i < ac; i++ {
				in[i] = src[i*n+lane]
			}
			f.a.Apply(out, in)
			for i := 0; i < ar; i++ {
				dst[i*n+lane] = out[i]
			}
		}
	default:
		// General case via A ⊗ B = (A ⊗ I_{rows(B)}) · (I_{cols(A)} ⊗ B).
		mid := make([]complex128, f.a.Cols()*f.b.Rows())
		Kron(I(f.a.Cols()), f.b).Apply(mid, src)
		Kron(f.a, I(f.b.Rows())).Apply(dst, mid)
	}
}

// KronAll left-folds Kron over its arguments: a ⊗ b ⊗ c ⊗ ….
func KronAll(fs ...Formula) Formula {
	if len(fs) == 0 {
		panic("spl: KronAll of nothing")
	}
	f := fs[0]
	for _, g := range fs[1:] {
		f = Kron(f, g)
	}
	return f
}
