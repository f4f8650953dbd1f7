package layout

import (
	"math/rand"
	"testing"
)

// CopyStream is copy: every length around the 16-element kernel step, source
// and destination at every 16-byte phase of a line, nothing written past the
// shorter slice.
func TestCopyStreamIsCopy(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	src := randVec(41, 700)
	for trial := 0; trial < 300; trial++ {
		n := []int{0, 1, 15, 16, 17, 31, 32, 48, 255, 256, 600}[r.Intn(11)]
		so, do := r.Intn(5), r.Intn(5)
		dst := make([]complex128, 700)
		want := make([]complex128, 700)
		copy(want[do:do+n], src[so:so+n])
		CopyStream(dst[do:do+n], src[so:so+n+r.Intn(3)])
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d src+%d dst+%d: element %d = %v, want %v", n, so, do, i, dst[i], want[i])
			}
		}
	}
}
