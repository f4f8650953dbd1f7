package spl

import "fmt"

// L returns the stride permutation L_n^{mn} following the paper's
// definition:
//
//	L_n^{mn}: i·n + j → j·m + i,  0 ≤ i < m, 0 ≤ j < n,
//
// i.e. reading the input as an m×n row-major matrix and writing its
// transpose. The first argument is the total size mn, the second the
// subscript n; mn must be divisible by n.
func L(mn, n int) Formula {
	if n < 1 || mn < 1 || mn%n != 0 {
		panic(fmt.Sprintf("spl: L(%d, %d) invalid", mn, n))
	}
	m := mn / n
	to := make([]int, mn)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			to[i*n+j] = j*m + i
		}
	}
	return perm{to, fmt.Sprintf("L^{%d}_%d", mn, n)}
}

// K returns the paper's 3D rotation
//
//	K_m^{k,n} = (L_m^{mk} ⊗ I_n) · (I_k ⊗ L_m^{mn})
//
// acting on a k×n×m row-major cube (z, y, x) and producing the m×k×n cube
// with out[x][z][y] = in[z][y][x] (Fig. 5). The arguments are (k, n, m).
func K(k, n, m int) Formula {
	if k < 1 || n < 1 || m < 1 {
		panic(fmt.Sprintf("spl: K(%d, %d, %d) invalid", k, n, m))
	}
	to := make([]int, k*n*m)
	for z := 0; z < k; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < m; x++ {
				to[(z*n+y)*m+x] = (x*k+z)*n + y
			}
		}
	}
	return perm{to, fmt.Sprintf("K_%d^{%d,%d}", m, k, n)}
}

// ------------------------------------------------ sliding windows S and G

type scatterWin struct{ n, b, i int }

// S returns the paper's S_{n,b,i} ∈ R^{n×b}: the operator that writes a
// b-element block into slot i of an n-element vector (all other outputs
// zero). n must be divisible by b and 0 ≤ i < n/b.
func S(n, b, i int) Formula {
	if b < 1 || n < b || n%b != 0 || i < 0 || i >= n/b {
		panic(fmt.Sprintf("spl: S(%d, %d, %d) invalid", n, b, i))
	}
	return scatterWin{n, b, i}
}

func (f scatterWin) Rows() int      { return f.n }
func (f scatterWin) Cols() int      { return f.b }
func (f scatterWin) String() string { return fmt.Sprintf("S_{%d,%d,%d}", f.n, f.b, f.i) }
func (f scatterWin) Apply(dst, src []complex128) {
	checkDims(f, dst, src)
	for j := range dst {
		dst[j] = 0
	}
	copy(dst[f.i*f.b:(f.i+1)*f.b], src)
}

type gatherWin struct{ n, b, i int }

// G returns G_{n,b,i} ∈ R^{b×n}, the transpose of S_{n,b,i}: it reads the
// i-th b-element block out of an n-element vector.
func G(n, b, i int) Formula {
	if b < 1 || n < b || n%b != 0 || i < 0 || i >= n/b {
		panic(fmt.Sprintf("spl: G(%d, %d, %d) invalid", n, b, i))
	}
	return gatherWin{n, b, i}
}

func (f gatherWin) Rows() int      { return f.b }
func (f gatherWin) Cols() int      { return f.n }
func (f gatherWin) String() string { return fmt.Sprintf("G_{%d,%d,%d}", f.n, f.b, f.i) }
func (f gatherWin) Apply(dst, src []complex128) {
	checkDims(f, dst, src)
	copy(dst, src[f.i*f.b:(f.i+1)*f.b])
}
