//go:build !linux

package layout

// Cold reports false: without Linux's mincore no array reads cold, so
// nothing is pre-faulted and stores fault pages in as they land.
func Cold[E any](x []E) bool { return false }

// Prefault is a no-op without Linux's MADV_POPULATE_WRITE.
func Prefault[E any](x []E) error { return nil }
