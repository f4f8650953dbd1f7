package obs

import (
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
)

// BuildInfo identifies one node in a fleet scrape: which binary it runs
// and how it is configured to compute. KernelTier and CPUFeatures are
// passed in by the caller (kernels.Tier(), cpufeat.Summary()) so obs stays
// free of kernel dependencies: the tier names the rounding behaviour, the
// feature list tells which vector width a node dispatches (a node with
// "avx512f avx512dq" runs the 512-bit radix-16 kernels under tier "avx2").
type BuildInfo struct {
	Version     string
	Commit      string
	KernelTier  string
	CPUFeatures string
	GoMaxProcs  int
}

// ReadBuildInfo fills Version and Commit from the binary's embedded build
// metadata (module version and vcs.revision; "unknown" when the binary was
// built outside a module or checkout) and GoMaxProcs from the runtime.
func ReadBuildInfo(kernelTier, cpuFeatures string) BuildInfo {
	bi := BuildInfo{
		Version:     "unknown",
		Commit:      "unknown",
		KernelTier:  kernelTier,
		CPUFeatures: cpuFeatures,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	if info.Main.Version != "" && info.Main.Version != "(devel)" {
		bi.Version = info.Main.Version
	} else {
		bi.Version = "devel"
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			bi.Commit = s.Value
			if len(bi.Commit) > 12 {
				bi.Commit = bi.Commit[:12]
			}
		}
	}
	return bi
}

// WritePrometheus emits the conventional build-info gauge: constant 1 with
// identity carried in labels, so fleet aggregations can tell nodes apart
// by joining on it.
func (b BuildInfo) WritePrometheus(w io.Writer) error {
	p := NewPromWriter(w)
	p.Family("fft_build_info", "Build and runtime identity of this node (constant 1).", "gauge")
	p.Sample("fft_build_info", 1,
		"version", b.Version,
		"commit", b.Commit,
		"kernel_tier", b.KernelTier,
		"cpu_features", b.CPUFeatures,
		"gomaxprocs", strconv.Itoa(b.GoMaxProcs))
	return p.Err()
}
