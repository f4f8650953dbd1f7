// Package affinity assigns pipeline workers to roles and (virtual) cores,
// mirroring the paper's §IV thread-placement strategy.
//
// The paper pins one data-thread and one compute-thread together: on Intel
// parts the pair shares a physical core's two hyperthreads (and its L1/L2),
// on AMD parts the pair occupies two cores sharing an L2 (Fig. 2). Go has no
// portable thread-pinning API, and the executor's workers are plain
// goroutines left to the scheduler; what this package provides is a
// deterministic worker → (core, socket, role) layout that the machine
// simulator consumes, so simulated placement matches what the paper's
// kmp_affinity/sched_setaffinity calls produce, and the Role names the
// executor's workers carry.
package affinity

import "fmt"

// Role distinguishes soft-DMA data workers from compute workers.
type Role int

const (
	// ComputeRole workers run batched FFT pencils on cached buffers.
	ComputeRole Role = iota
	// DataRole workers are the soft DMA engines: they stream blocks in
	// and write rotated blocks out.
	DataRole
)

func (r Role) String() string {
	if r == DataRole {
		return "data"
	}
	return "compute"
}

// PairingStyle selects how data/compute pairs map onto cores.
type PairingStyle int

const (
	// SMTPaired puts a data-thread and a compute-thread on the two
	// hardware threads of one core (Intel, Fig. 2A): they share L1/L2 and
	// the load/store pipes.
	SMTPaired PairingStyle = iota
	// CorePaired puts each thread on its own core, pairing neighbours
	// that share an L2 (AMD, Fig. 2B).
	CorePaired
)

func (s PairingStyle) String() string {
	if s == CorePaired {
		return "core-paired"
	}
	return "smt-paired"
}

// Worker is one pipeline participant with its virtual placement.
type Worker struct {
	ID     int
	Role   Role
	Core   int
	Socket int
}

// Layout is a complete worker placement for one run.
type Layout struct {
	Style   PairingStyle
	Sockets int
	Workers []Worker
}

// NewLayout builds the paper's placement: pc compute and pd data workers per
// socket, paired per the style. pc and pd must be positive; SMTPaired
// additionally requires pc == pd (one data/compute pair per physical core).
// CorePaired places any combination on alternating cores.
func NewLayout(style PairingStyle, pc, pd, sockets int) (Layout, error) {
	if pc < 1 || pd < 1 || sockets < 1 {
		return Layout{}, fmt.Errorf("affinity: invalid layout pc=%d pd=%d sockets=%d", pc, pd, sockets)
	}
	if style == SMTPaired && pc != pd {
		return Layout{}, fmt.Errorf("affinity: SMT pairing requires pc == pd, got %d/%d", pc, pd)
	}
	l := Layout{Style: style, Sockets: sockets}
	id := 0
	for sk := 0; sk < sockets; sk++ {
		switch style {
		case SMTPaired:
			// Core c on socket sk hosts compute worker (thread 0) and
			// data worker (thread 1).
			for c := 0; c < pc; c++ {
				l.Workers = append(l.Workers,
					Worker{ID: id, Role: ComputeRole, Core: c, Socket: sk},
					Worker{ID: id + 1, Role: DataRole, Core: c, Socket: sk})
				id += 2
			}
		case CorePaired:
			// Alternate compute/data on consecutive cores so each
			// L2-sharing pair has one of each.
			core := 0
			for c, d := 0, 0; c < pc || d < pd; {
				if c < pc {
					l.Workers = append(l.Workers, Worker{ID: id, Role: ComputeRole, Core: core, Socket: sk})
					id++
					core++
					c++
				}
				if d < pd {
					l.Workers = append(l.Workers, Worker{ID: id, Role: DataRole, Core: core, Socket: sk})
					id++
					core++
					d++
				}
			}
		default:
			return Layout{}, fmt.Errorf("affinity: unknown pairing style %d", style)
		}
	}
	return l, nil
}

// ComputeWorkers returns the compute-role workers in ID order.
func (l Layout) ComputeWorkers() []Worker { return l.byRole(ComputeRole) }

// DataWorkers returns the data-role workers in ID order.
func (l Layout) DataWorkers() []Worker { return l.byRole(DataRole) }

func (l Layout) byRole(r Role) []Worker {
	var out []Worker
	for _, w := range l.Workers {
		if w.Role == r {
			out = append(out, w)
		}
	}
	return out
}

// PairOf returns the worker sharing w's core with the opposite role, if any.
func (l Layout) PairOf(w Worker) (Worker, bool) {
	if l.Style == SMTPaired {
		for _, o := range l.Workers {
			if o.Socket == w.Socket && o.Core == w.Core && o.Role != w.Role {
				return o, true
			}
		}
		return Worker{}, false
	}
	// CorePaired: neighbours (2c, 2c+1) share an L2.
	group := w.Core / 2
	for _, o := range l.Workers {
		if o.Socket == w.Socket && o.Core/2 == group && o.ID != w.ID && o.Role != w.Role {
			return o, true
		}
	}
	return Worker{}, false
}
