package cpufeat

import (
	"runtime"
	"strings"
	"testing"
)

func TestSummaryListsDetectedFeatures(t *testing.T) {
	s := Summary()
	if s == "" {
		t.Fatal("Summary returned empty string")
	}
	detected := false
	for _, c := range []struct {
		name string
		has  bool
	}{
		{"avx", X86.HasAVX},
		{"avx2", X86.HasAVX2},
		{"fma", X86.HasFMA},
		{"avx512f", X86.HasAVX512F},
		{"avx512dq", X86.HasAVX512DQ},
		{"prfchw", X86.HasPRFCHW},
		{"clflushopt", X86.HasCLFLUSHOPT},
	} {
		detected = detected || c.has
		if listed := strings.Contains(" "+s+" ", " "+c.name+" "); listed != c.has {
			t.Errorf("Summary %q lists %s = %v, detected %v", s, c.name, listed, c.has)
		}
	}
	if !detected && s != "none" {
		t.Fatalf("Summary %q, want \"none\" with no features", s)
	}
}

func TestAVX2ImpliesAVX(t *testing.T) {
	// The init gates AVX2 on AVX's OS-support check, and the 512-bit pair on
	// that plus the ZMM/opmask state, so a wider feature without the narrower
	// one must be impossible on every host.
	if X86.HasAVX2 && !X86.HasAVX {
		t.Fatal("HasAVX2 set without HasAVX")
	}
	if X86.HasAVX512F && !X86.HasAVX {
		t.Fatal("HasAVX512F set without HasAVX")
	}
	if X86.HasAVX512DQ && !X86.HasAVX512F {
		t.Fatal("HasAVX512DQ set without HasAVX512F")
	}
	if runtime.GOARCH != "amd64" && X86 != (Features{}) {
		t.Fatal("x86 features detected on non-amd64 host")
	}
}
