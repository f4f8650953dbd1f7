// Package cli holds small helpers shared by the command-line tools.
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// ParseDims parses a comma-separated dimension list ("512,512,512" or
// "1024,2048") into the extents of a complex shape core's rule accepts.
func ParseDims(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad dimension %q", p)
		}
		dims[i] = v
	}
	if err := core.ShapeOf(false, dims...).Check(core.MaxElems); err != nil {
		return nil, fmt.Errorf("size %q: %w", s, err)
	}
	return dims, nil
}
