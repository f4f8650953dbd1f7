package repro

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.txt from the current exported surface")

// apiSurface lists, by reflection, the exported fields and the methods (name
// and signature) of every handle type, pointer and value, and the signature
// of every constructor.
func apiSurface() string {
	var b strings.Builder
	for _, v := range []any{
		(*FFT1D)(nil), (*FFT2D)(nil), (*FFT3D)(nil),
		(*RealFFT1D)(nil), (*RealFFT2D)(nil), (*RealFFT3D)(nil), (*SharedPlans)(nil),
	} {
		for _, t := range []reflect.Type{reflect.TypeOf(v), reflect.TypeOf(v).Elem()} {
			for i := 0; i < t.NumMethod(); i++ {
				fmt.Fprintf(&b, "%s.%s %s\n", t, t.Method(i).Name, t.Method(i).Type)
			}
		}
		for _, f := range reflect.VisibleFields(reflect.TypeOf(v).Elem()) {
			if f.IsExported() {
				fmt.Fprintf(&b, "%s field %s %s\n", reflect.TypeOf(v).Elem(), f.Name, f.Type)
			}
		}
	}
	for _, c := range []struct {
		name string
		f    any
	}{
		{"NewFFT1D", NewFFT1D}, {"NewFFT2D", NewFFT2D}, {"NewFFT3D", NewFFT3D},
		{"NewRealFFT1D", NewRealFFT1D}, {"NewRealFFT2D", NewRealFFT2D}, {"NewRealFFT3D", NewRealFFT3D},
		{"NewSharedPlans", NewSharedPlans},
	} {
		fmt.Fprintf(&b, "%s %s\n", c.name, reflect.TypeOf(c.f))
	}
	return b.String()
}

// The exported surface of the handles is pinned to testdata/api.txt: no
// method or constructor is added, removed or re-signed — in particular no
// embedded helper leaks a method (DescribeGraph, Dims) onto a handle kind
// that does not declare it. After a deliberate API change, rewrite the file
// with `go test -run TestAPISurface -update-api .`.
func TestAPISurface(t *testing.T) {
	got := apiSurface()
	if *updateAPI {
		if err := os.WriteFile("testdata/api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/api.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported surface changed:\n--- got\n%s--- want (testdata/api.txt)\n%s", got, want)
	}
}
