// Package fft3d keeps the names the benchmark ruler builds its reference
// k×n×m complex plan with; the plan is core.Plan.
package fft3d

import "repro/internal/core"

// Options and DoubleBuf are the ruler's names for core.Config and its one
// strategy.
type Options = core.Config

const DoubleBuf = core.DoubleBuf

// NewPlan builds the complex k×n×m plan.
func NewPlan(k, n, m int, cfg Options) (*core.Plan, error) { return core.NewPlan(cfg, false, k, n, m) }
