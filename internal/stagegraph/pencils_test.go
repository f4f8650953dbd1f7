package stagegraph

import "testing"

func TestLargestDivisorAtMost(t *testing.T) {
	cases := []struct{ n, cap, want int }{
		{12, 5, 4}, {12, 12, 12}, {12, 100, 12}, {7, 3, 1}, {16, 6, 4}, {1, 1, 1},
	}
	for _, c := range cases {
		if got := largestDivisorAtMost(c.n, c.cap); got != c.want {
			t.Errorf("largestDivisorAtMost(%d, %d) = %d, want %d", c.n, c.cap, got, c.want)
		}
	}
}
