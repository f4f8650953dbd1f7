package spl

// Dense materializes f as a row-major rows×cols matrix by applying f to the
// standard basis. Intended for small-size verification only.
func Dense(f Formula) [][]complex128 {
	rows, cols := f.Rows(), f.Cols()
	m := make([][]complex128, rows)
	for i := range m {
		m[i] = make([]complex128, cols)
	}
	e := make([]complex128, cols)
	y := make([]complex128, rows)
	for j := 0; j < cols; j++ {
		e[j] = 1
		f.Apply(y, e)
		e[j] = 0
		for i := 0; i < rows; i++ {
			m[i][j] = y[i]
		}
	}
	return m
}

// DenseEqual reports whether two formulas denote the same matrix within tol
// (maximum elementwise modulus difference). Shapes must match exactly.
func DenseEqual(a, b Formula, tol float64) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	ma, mb := Dense(a), Dense(b)
	for i := range ma {
		for j := range ma[i] {
			d := ma[i][j] - mb[i][j]
			if re, im := real(d), imag(d); re*re+im*im > tol*tol {
				return false
			}
		}
	}
	return true
}
