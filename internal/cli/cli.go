// Package cli holds small helpers shared by the command-line tools.
package cli

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseDims parses a comma-separated dimension list ("512,512,512" or
// "1024,2048") into positive integers.
func ParseDims(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad dimension %q", p)
		}
		dims = append(dims, v)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("empty dimension list")
	}
	return dims, nil
}
