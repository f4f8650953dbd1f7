//go:build linux

package layout

// SetMadvise replaces the system call Prefault makes until the returned
// restore runs, for the external tests that drive whole transforms.
func SetMadvise(f func(addr, n uintptr, advice int) error) (restore func()) {
	prev := madvise
	madvise = f
	return func() { madvise = prev }
}
