package cli

import "testing"

func TestParseDims(t *testing.T) {
	good := map[string][]int{
		"512,512,512": {512, 512, 512},
		"1024, 2048":  {1024, 2048},
		"7":           {7},
	}
	for in, want := range good {
		got, err := ParseDims(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: got %v", in, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: got %v, want %v", in, got, want)
			}
		}
	}
	for _, in := range []string{"", "a,b", "0,4", "-1", "4,,4"} {
		if _, err := ParseDims(in); err == nil {
			t.Errorf("%q: expected error", in)
		}
	}
}
