// Command asm generates the AVX2/FMA codelets used by internal/kernels
// and internal/layout on amd64 hosts. Run it via `make asmgen` from the
// repository root; the generated .s files are committed so builds never
// depend on running the generator.
//
// The generator plays the role avo/FFTW's genfft play in the paper's
// toolchain: the butterfly dataflow is described once in Go (the emitter
// functions below) and specialised into three addressing modes per
// radix —
//
//   - vec256: two q-elements per iteration (a full YMM of complex128),
//     twiddles broadcast per block since every q shares the block's
//     twiddle;
//   - tail128: one q-element (XMM) for odd strides;
//   - pairs: the s==1 stage (last Stockham stage), where consecutive
//     butterflies are adjacent in memory, so two butterflies run per
//     iteration with lane-interleaved twiddles instead of broadcasts.
//
// The radix-8 and radix-16 bodies also run in vec512 (four q-elements or,
// paired, four butterflies per ZMM, no tail), the AVX-512 tier whose every
// lane performs the vec256 lane's operations.
//
// Complex arithmetic convention (interleaved kernels): a complex128 is
// [re, im] in adjacent lanes. For t*w the codelet computes
//
//	tmp   = swap(t) * broadcast(w.im)        // [t.im*wi, t.re*wi]
//	y     = fmaddsub(broadcast(w.re), t, tmp) // [t.re*wr - t.im*wi,
//	                                          //  t.im*wr + t.re*wi]
//
// and the DIF rotation by jim*i (jim = ±1 for inverse/forward) is
// swap(t) * jimalt where jimalt = [-jim, +jim, ...], so the same codelet
// body serves both transform signs.
//
// Register budget notes live next to each emitter; the hard constraints
// are: R14 (goroutine pointer) and BP/SP are never touched, every exit
// path issues VZEROUPPER, and all functions are leaves, NOSPLIT but for
// the frames past the linker's nosplit limit (nosplitFrame).
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

type gen struct {
	b strings.Builder
}

// ln writes one raw line.
func (g *gen) ln(format string, args ...any) {
	fmt.Fprintf(&g.b, format+"\n", args...)
}

// op writes one tab-indented instruction.
func (g *gen) op(format string, args ...any) {
	fmt.Fprintf(&g.b, "\t"+format+"\n", args...)
}

func (g *gen) label(l string) { g.ln("%s:", l) }

func (g *gen) comment(format string, args ...any) {
	g.op("// "+format, args...)
}

// mode describes one specialisation of a butterfly body.
type mode struct {
	name string
	pfx  string // vector register prefix: "Z", "Y" or "X"
	step int    // bytes each q iteration advances SI/DI by
	// pairs: s==1 layout — lane-interleaved twiddles, per-lane stores (held
	// and written as whole rows in vec512).
	pairs bool
}

func (m mode) r(i int) string { return fmt.Sprintf("%s%d", m.pfx, i) }

// imm renders a VPERMILPD selector given as its four-lane (YMM) pattern;
// vec512 repeats the pattern over its upper four lanes.
func (m mode) imm(p int) string {
	if m.pfx == "Z" {
		p |= p << 4
	}
	return fmt.Sprintf("$0x%X", p)
}

// bcast names register i as a VBROADCASTSD destination: the instruction has
// no XMM form, so tail128 broadcasts into the YMM and reads its low half.
func (m mode) bcast(i int) string {
	if m.pfx == "X" {
		return fmt.Sprintf("Y%d", i)
	}
	return m.r(i)
}

// park and unpark move pass-A intermediate `slot` (radix-8 or radix-16) out
// of and back into the working registers: a 32-byte frame slot in the
// YMM/XMM modes, register Z(16+slot) in vec512, which has the upper half of
// the register file to spare and therefore needs no frame.
func (m mode) park(g *gen, reg string, slot int) {
	if m.pfx == "Z" {
		g.op("VMOVAPD %s, Z%d", reg, 16+slot)
		return
	}
	g.op("VMOVUPD %s, %d(SP)", reg, 32*slot)
}

func (m mode) unpark(g *gen, slot int, reg string) {
	if m.pfx == "Z" {
		g.op("VMOVAPD Z%d, %s", 16+slot, reg)
		return
	}
	g.op("VMOVUPD %d(SP), %s", 32*slot, reg)
}

// Every body moves packed doubles: the unaligned vector move and the PD
// arithmetic suffix.
const (
	movOp = "VMOVUPD"
	pd    = "PD"
)

var (
	vec512  = mode{name: "vec512", pfx: "Z", step: 64}
	vec256  = mode{name: "vec256", pfx: "Y", step: 32}
	tail128 = mode{name: "tail128", pfx: "X", step: 16}
)

func header(g *gen, what string) {
	g.ln("// Code generated by `go run ./internal/kernels/asm` (make asmgen). DO NOT EDIT.")
	g.ln("//")
	g.ln("// %s", what)
	g.ln("")
	g.ln("//go:build amd64 && !purego")
	g.ln("")
	g.ln("#include \"textflag.h\"")
	g.ln("")
}

// kernelConsts emits a file's constants; the two sign masks are width bytes
// (one full vector of the file's widest mode), since they are memory
// operands of VXORPD.
func kernelConsts(g *gen, width int) {
	g.ln("// signEven flips the sign of even (real) lanes: turning a broadcast of")
	g.ln("// jim into jimalt = [-jim, +jim, -jim, +jim], the multiplier that")
	g.ln("// implements the DIF rotation t -> jim*i*t as swap(t)*jimalt.")
	for off := 0; off < width; off += 16 {
		g.ln("DATA signEven<>+%d(SB)/8, $0x8000000000000000", off)
		g.ln("DATA signEven<>+%d(SB)/8, $0x0000000000000000", off+8)
	}
	g.ln("GLOBL signEven<>(SB), RODATA|NOPTR, $%d", width)
	g.ln("")
	g.ln("// signAll negates every lane (used by the radix-16 rotations).")
	for off := 0; off < width; off += 8 {
		g.ln("DATA signAll<>+%d(SB)/8, $0x8000000000000000", off)
	}
	g.ln("GLOBL signAll<>(SB), RODATA|NOPTR, $%d", width)
	g.ln("")
	g.ln("// laneRe/laneIm keep the even (real) or odd (imaginary) lanes of a")
	g.ln("// broadcast: the sink codelets' scale multipliers [s,0,…] and [0,s,…].")
	for _, c := range []struct {
		name string
		keep int
	}{{"laneRe", 0}, {"laneIm", 8}} {
		for off := 0; off < width; off += 8 {
			v := "$0x0000000000000000"
			if off%16 == c.keep {
				v = "$0xFFFFFFFFFFFFFFFF"
			}
			g.ln("DATA %s<>+%d(SB)/8, %s", c.name, off, v)
		}
		g.ln("GLOBL %s<>(SB), RODATA|NOPTR, $%d", c.name, width)
	}
	g.ln("")
	g.ln("// sqrtHalf = 1/sqrt(2), the radix-8 diagonal rotation magnitude.")
	g.ln("DATA sqrtHalf<>+0(SB)/8, $0x3FE6A09E667F3BCD")
	g.ln("GLOBL sqrtHalf<>(SB), RODATA|NOPTR, $8")
	g.ln("")
	g.ln("// cosPi8/sinPi8: the omega_16 rotation components used by the fused")
	g.ln("// radix-16 inter-rank twiddles. Bit-identical to the Go literals in")
	g.ln("// kernels.go so the codelet and generic tiers round the same way.")
	g.ln("DATA cosPi8<>+0(SB)/8, $%#016x", math.Float64bits(0.9238795325112867))
	g.ln("GLOBL cosPi8<>(SB), RODATA|NOPTR, $8")
	g.ln("DATA sinPi8<>+0(SB)/8, $%#016x", math.Float64bits(0.38268343236508978))
	g.ln("GLOBL sinPi8<>(SB), RODATA|NOPTR, $8")
	g.ln("")
}

// ---------------------------------------------------------------------------
// Interleaved (complex128) kernels.
//
// Register map (radix4AVX2 / radix8AVX2):
//
//	SI  x cursor (advances 16 bytes per q element; a p-row is s elements,
//	    so SI lands on the next row with no end-of-row fixup)
//	DI  y cursor (advances likewise, plus (r-1)*s16 per row)
//	DX  p (block index); CX q countdown
//	R8  p16 = 16*p (twiddle offset, recomputed each row)
//	R10 sm16 = 16*s*m   R11 = 3*sm16   (x-leg strides)
//	R12 s16  = 16*s     R13 = 3*s16    (y-leg strides; DI's row advance
//	    (r-1)*s16 is R13 at radix 4, recomputed in AX at radix 8)
//	R9  the prefetch cursor's next (cursor)
//	BX  twiddle pointer struct; AX, R15 scratch
//
// Pairs variants (s==1): R10 = 16*m, legs addressed identically; stores
// use immediate displacements 16*k / 16*(k+r) from DI.
// ---------------------------------------------------------------------------

// twiddleInter abstracts how a codelet obtains the (wr, wi) vector pair
// for output leg k. Returns the register names; may emit loads.
type twiddleInter func(g *gen, m mode, k int) (wr, wi string)

// preloadedTw: radix-4 non-pairs — w1..w3 broadcast into Y9..Y14 at the
// top of each p row.
func preloadedTw(g *gen, m mode, k int) (string, string) {
	return m.r(9 + 2*(k-1)), m.r(10 + 2*(k-1))
}

// emitPreloadTw emits the per-row broadcasts backing preloadedTw.
func emitPreloadTw(g *gen, nTw int) {
	for k := 1; k <= nTw; k++ {
		g.op("MOVQ %d(BX), AX", (k-1)*8)
		g.op("VBROADCASTSD (AX)(R8*1), Y%d", 9+2*(k-1))
		g.op("VBROADCASTSD 8(AX)(R8*1), Y%d", 10+2*(k-1))
	}
}

// lazyTw: radix-8 — too many legs to keep resident; broadcast w_k into
// V9/V10 right before use. R15 is free outside pass A.
func lazyTw(g *gen, m mode, k int) (string, string) {
	g.op("MOVQ %d(BX), R15", (k-1)*8)
	g.op("VBROADCASTSD (R15)(R8*1), %s", m.bcast(9))
	g.op("VBROADCASTSD 8(R15)(R8*1), %s", m.bcast(10))
	return m.r(9), m.r(10)
}

// pairTw: s==1 — load the adjacent twiddles of the iteration's butterflies
// (p, p+1; four of them in vec512) and splat re/im per 128-bit lane with
// VPERMILPD.
func pairTw(g *gen, m mode, k int) (string, string) {
	g.op("MOVQ %d(BX), AX", (k-1)*8)
	g.op("%s (AX)(R8*1), %s", movOp, m.r(9))
	g.op("VPERMILPD %s, %s, %s", m.imm(0x0), m.r(9), m.r(10)) // re lanes
	g.op("VPERMILPD %s, %s, %s", m.imm(0xF), m.r(9), m.r(9))  // im lanes
	return m.r(10), m.r(9)
}

// storeInter abstracts output addressing for leg k.
type storeInter func(g *gen, m mode, k int, reg string)

// indexStore: y_k at DI + k*s16 (k<4) or AX + (k-4)*s16 (AX = DI+4*s16,
// set up by the radix-8 body before its first store).
func indexStore(g *gen, m mode, k int, reg string) {
	base, kk := "DI", k
	if k >= 4 {
		base, kk = "AX", k-4
	}
	switch kk {
	case 0:
		g.op("%s %s, (%s)", movOp, reg, base)
	case 1:
		g.op("%s %s, (%s)(R12*1)", movOp, reg, base)
	case 2:
		g.op("%s %s, (%s)(R12*2)", movOp, reg, base)
	case 3:
		g.op("%s %s, (%s)(R13*1)", movOp, reg, base)
	}
}

// pairStore emits the per-lane stores for the YMM/XMM pairs modes: 128-bit
// lane j of the register is butterfly p+j's leg k (offset 16*(k+j*r)). In
// the odd-m tail only lane 0 exists. vec512 holds its legs instead
// (heldStore).
func pairStore(radix int) storeInter {
	return func(g *gen, m mode, k int, reg string) {
		if m.pfx == "X" {
			g.op("VMOVUPD %s, %d(DI)", reg, 16*k)
			return
		}
		x := "X" + reg[1:]
		g.op("VMOVUPD %s, %d(DI)", x, 16*k)
		g.op("VEXTRACTF128 $1, %s, X9", reg)
		g.op("VMOVUPD X9, %d(DI)", 16*(k+radix))
	}
}

// heldStore is the vec512 pairs store: lane j of leg k's register belongs to
// butterfly p+j, so instead of four 16-byte lane stores per leg it keeps the
// leg in register hold(k) until the body ends and flushHeld writes whole
// rows.
func heldStore(hold func(k int) string) storeInter {
	return func(g *gen, m mode, k int, reg string) {
		g.op("VMOVAPD %s, %s", reg, hold(k))
	}
}

// flushHeld writes the legs heldStore kept for four butterflies: a 4×4
// transpose of 128-bit lanes per group of four legs (eight VSHUFF64X2) turns
// legs 4i..4i+3 of butterfly j into one ZMM, stored at 16*(radix*j + 4*i)
// bytes from the butterflies' base — which DI has already passed by `step`
// when the body returns. Z0..Z7 are scratch.
func flushHeld(g *gen, radix, step int, hold func(k int) string) {
	g.comment("transpose the held legs into whole 64-byte rows per butterfly")
	for i := 0; i < radix/4; i++ {
		a, b, c, d := hold(4*i), hold(4*i+1), hold(4*i+2), hold(4*i+3)
		g.op("VSHUFF64X2 $0x44, %s, %s, Z4", b, a) // [a0 a1 b0 b1]
		g.op("VSHUFF64X2 $0xEE, %s, %s, Z5", b, a) // [a2 a3 b2 b3]
		g.op("VSHUFF64X2 $0x44, %s, %s, Z6", d, c) // [c0 c1 d0 d1]
		g.op("VSHUFF64X2 $0xEE, %s, %s, Z7", d, c) // [c2 c3 d2 d3]
		g.op("VSHUFF64X2 $0x88, Z6, Z4, Z0")       // [a0 b0 c0 d0]
		g.op("VSHUFF64X2 $0xDD, Z6, Z4, Z1")       // [a1 b1 c1 d1]
		g.op("VSHUFF64X2 $0x88, Z7, Z5, Z2")       // [a2 b2 c2 d2]
		g.op("VSHUFF64X2 $0xDD, Z7, Z5, Z3")       // [a3 b3 c3 d3]
		for j := 0; j < 4; j++ {
			g.op("VMOVUPD Z%d, %d(DI)", j, 16*(radix*j+4*i)-step)
		}
	}
}

// hold8 and hold16 name the register leg k waits in: for radix 8 the free
// Z20..Z27; for radix 16 the park slot pass B just emptied — group jA = k%4
// unparks Z(16+4jA)..Z(19+4jA) before it computes legs jA, jA+4, jA+8, jA+12.
func hold8(k int) string  { return fmt.Sprintf("Z%d", 20+k) }
func hold16(k int) string { return fmt.Sprintf("Z%d", 16+4*(k%4)+k/4) }

// dft4Inter emits a 4-point DIF butterfly on V0..V3 (a,b,c,d), writing
// output legs outs[0..3] = (a+c)+(b+d), (a-c)+j(b-d), (a+c)-(b+d),
// (a-c)-j(b-d), where j = jim*i is applied via jimalt (V15). Leg
// outs[0] is stored untwiddled when tw0 is false; other legs multiply by
// their twiddle. Clobbers V0..V11.
func dft4Inter(g *gen, m mode, outs [4]int, tw0 bool, tw twiddleInter, store storeInter) {
	s := pd
	g.op("VADD%s %s, %s, %s", s, m.r(2), m.r(0), m.r(4)) // apc
	g.op("VSUB%s %s, %s, %s", s, m.r(2), m.r(0), m.r(5)) // amc
	g.op("VADD%s %s, %s, %s", s, m.r(3), m.r(1), m.r(6)) // bpd
	g.op("VSUB%s %s, %s, %s", s, m.r(3), m.r(1), m.r(7)) // bmd
	// Leg outs[0]: apc + bpd.
	g.op("VADD%s %s, %s, %s", s, m.r(6), m.r(4), m.r(0))
	if tw0 {
		cmulInter(g, m, outs[0], m.r(0), m.r(11), tw, store)
	} else {
		store(g, m, outs[0], m.r(0))
	}
	// j(b-d) = swap(bmd) * jimalt.
	g.op("VPERMILPD %s, %s, %s", m.imm(0x5), m.r(7), m.r(7))
	g.op("VMOVAPD %s, %s", m.r(5), m.r(1))
	g.op("VFMADD231%s %s, %s, %s", s, m.r(15), m.r(7), m.r(1))  // amc + jbmd
	g.op("VFNMADD231%s %s, %s, %s", s, m.r(15), m.r(7), m.r(5)) // amc - jbmd
	g.op("VSUB%s %s, %s, %s", s, m.r(6), m.r(4), m.r(4))        // apc - bpd
	cmulInter(g, m, outs[1], m.r(1), m.r(2), tw, store)
	cmulInter(g, m, outs[2], m.r(4), m.r(3), tw, store)
	cmulInter(g, m, outs[3], m.r(5), m.r(0), tw, store)
}

// cmulInter multiplies the butterfly leg in treg by twiddle k and stores
// it: out = fmaddsub(wr, t, swap(t)*wi).
func cmulInter(g *gen, m mode, k int, treg, tmp string, tw twiddleInter, store storeInter) {
	wr, wi := tw(g, m, k)
	g.op("VPERMILPD %s, %s, %s", m.imm(0x5), treg, tmp)
	g.op("VMUL%s %s, %s, %s", pd, wi, tmp, tmp)
	g.op("VFMADDSUB231%s %s, %s, %s", pd, wr, treg, tmp)
	store(g, m, k, tmp)
}

// radix4Body: loads a..d into V0..V3 and runs the 4-point butterfly.
func radix4Body(g *gen, m mode, tw twiddleInter, store storeInter) {
	g.op("%s (SI), %s", movOp, m.r(0))
	g.op("%s (SI)(R10*1), %s", movOp, m.r(1))
	g.op("%s (SI)(R10*2), %s", movOp, m.r(2))
	g.op("%s (SI)(R11*1), %s", movOp, m.r(3))
	dft4Inter(g, m, [4]int{0, 1, 2, 3}, false, tw, store)
	g.op("ADDQ $%d, SI", m.step)
	g.op("ADDQ $%d, DI", m.step)
}

// radix8Body: decomposed into even/odd 4-point DFTs. The four unrotated odd
// differences t_k = x_k - x_{k+4} are parked while the even half runs,
// capping the live register count: spilled to the frame (slots of 32 bytes
// at 0/32/64/96(SP)) in the YMM/XMM modes, held in Z16..Z19 in vec512.
func radix8Body(g *gen, m mode, tw twiddleInter, store storeInter, leaYE bool) {
	verb := "spilled"
	if m.pfx == "Z" {
		verb = "parked in Z16..Z19"
	}
	g.comment("pass A: e_k = x_k + x_{k+4} (kept), t_k = x_k - x_{k+4} (%s)", verb)
	g.op("LEAQ (SI)(R10*4), R15")
	addr := []string{"(%s)", "(%s)(R10*1)", "(%s)(R10*2)", "(%s)(R11*1)"}
	for k := 0; k < 4; k++ {
		g.op("%s "+fmt.Sprintf(addr[k], "SI")+", %s", movOp, m.r(k))
		g.op("%s "+fmt.Sprintf(addr[k], "R15")+", %s", movOp, m.r(4))
		g.op("VSUB%s %s, %s, %s", pd, m.r(4), m.r(k), m.r(5))
		m.park(g, m.r(5), k)
		g.op("VADD%s %s, %s, %s", pd, m.r(4), m.r(k), m.r(k))
	}
	if leaYE {
		g.comment("AX = base of output legs 4..7")
		g.op("LEAQ (DI)(R12*4), AX")
	}
	g.comment("pass B: even 4-point DFT -> legs 0,2,4,6")
	dft4Inter(g, m, [4]int{0, 2, 4, 6}, false, tw, store)
	g.comment("pass C: reload t_k, rotate by w8^k, odd DFT -> legs 1,3,5,7")
	for k := 0; k < 4; k++ {
		m.unpark(g, k, m.r(k))
	}
	// h = 1/sqrt(2) was hoisted into V14 by the kernel prologue.
	// o1 = h*(t1 + j*t1) with j = jim*i.
	g.op("VPERMILPD %s, %s, %s", m.imm(0x5), m.r(1), m.r(9))
	g.op("VFMADD231%s %s, %s, %s", pd, m.r(15), m.r(9), m.r(1))
	g.op("VMUL%s %s, %s, %s", pd, m.r(14), m.r(1), m.r(1))
	// o2 = j*t2.
	g.op("VPERMILPD %s, %s, %s", m.imm(0x5), m.r(2), m.r(2))
	g.op("VMUL%s %s, %s, %s", pd, m.r(15), m.r(2), m.r(2))
	// o3 = h*(j*t3 - t3).
	g.op("VPERMILPD %s, %s, %s", m.imm(0x5), m.r(3), m.r(9))
	g.op("VMUL%s %s, %s, %s", pd, m.r(15), m.r(9), m.r(9))
	g.op("VSUB%s %s, %s, %s", pd, m.r(3), m.r(9), m.r(3))
	g.op("VMUL%s %s, %s, %s", pd, m.r(14), m.r(3), m.r(3))
	dft4Inter(g, m, [4]int{1, 3, 5, 7}, true, tw, store)
	g.op("ADDQ $%d, SI", m.step)
	g.op("ADDQ $%d, DI", m.step)
}

// frame8 is a radix-4/8 kernel's frame: four 32-byte spill slots for the
// radix-8 t_k, or nothing when radix-4 has none or wide parks them in
// registers.
func frame8(radix int, wide mode) int {
	if radix == 8 && wide.pfx != "Z" {
		return 128
	}
	return 0
}

// body8 runs one radix-4 or radix-8 butterfly body in mode m.
func body8(g *gen, radix int, m mode, tw twiddleInter, store storeInter, leaYE bool) {
	if radix == 4 {
		radix4Body(g, m, tw, store)
	} else {
		radix8Body(g, m, tw, store, leaYE)
	}
}

// cursor is the soft-DMA prefetch cursor every radix-4/8/16 codelet takes
// by value after its twiddle block, pf = {next, end, step}, at FP offset
// off, returning where it left next. Before each butterfly body the codelet
// asks for the bytes [next, min(next+step, end)) with PREFETCHT2, one 64-byte
// line at a time, and moves next to that bound, so a call of i bodies ends
// with next = min(end, next+i·step). An empty cursor (next ≥ end; the zero
// value) costs one compare a body. next lives in R9 for the whole call, end
// and step stay in the argument block, and AX walks the lines: every body
// sets AX before it reads it. The prefetches change no arithmetic.
type cursor struct{ off int }

func (c cursor) load(g *gen) { g.op("MOVQ pf_next+%d(FP), R9", c.off) }

// ask emits one body's prefetch; label names its two jump targets.
func (c cursor) ask(g *gen, label string) {
	end := fmt.Sprintf("pf_end+%d(FP)", c.off+8)
	g.op("CMPQ R9, %s", end)
	g.op("JAE %s_pfd", label)
	g.op("MOVQ R9, AX")
	g.op("ADDQ pf_step+%d(FP), R9", c.off+16)
	g.op("CMPQ R9, %s", end)
	g.op("JBE %s_pf", label)
	g.op("MOVQ %s, R9", end)
	g.label(label + "_pf")
	g.op("PREFETCHT2 (AX)")
	g.op("ADDQ $64, AX")
	g.op("CMPQ AX, R9")
	g.op("JB %s_pf", label)
	g.label(label + "_pfd")
}

func (c cursor) ret(g *gen) { g.op("MOVQ R9, ret+%d(FP)", c.off+24) }

// The cursor's place in the argument blocks of the strided and the pairs
// codelets.
var (
	stridedPF = cursor{off: 48}
	pairsPF   = cursor{off: 40}
)

// emitInterKernel writes one TEXT symbol for a strided radix-4 or radix-8
// kernel: wide.step/16 q elements per iteration, then (when tail is set) one
// XMM iteration for an odd stride. Without a tail the caller guarantees s is
// a multiple of the wide step.
func emitInterKernel(g *gen, name string, radix int, wide mode, tail bool) {
	per := wide.step / 16
	g.ln("// func %s(dst, src *complex128, m, s int, jim float64, tw *twiddlePtrs, pf Prefetch) uintptr", name)
	g.ln("TEXT ·%s(SB), NOSPLIT, $%d-80", name, frame8(radix, wide))
	g.op("MOVQ dst+0(FP), DI")
	g.op("MOVQ src+8(FP), SI")
	g.op("MOVQ s+24(FP), R12")
	g.op("SHLQ $4, R12") // s16
	g.op("MOVQ m+16(FP), R10")
	g.op("IMULQ R12, R10") // sm16
	g.op("LEAQ (R10)(R10*2), R11")
	g.op("LEAQ (R12)(R12*2), R13")
	g.op("MOVQ tw+40(FP), BX")
	stridedPF.load(g)
	g.op("VBROADCASTSD jim+32(FP), %s", wide.r(15))
	g.op("VXORPD signEven<>(SB), %s, %s", wide.r(15), wide.r(15)) // jimalt
	if radix == 8 {
		g.op("VBROADCASTSD sqrtHalf<>(SB), %s", wide.r(14))
	}
	g.op("XORQ DX, DX")
	g.label(name + "_p")
	g.op("CMPQ DX, m+16(FP)")
	g.op("JGE %s_done", name)
	g.op("MOVQ DX, R8")
	g.op("SHLQ $4, R8") // p16
	tw := lazyTw
	if radix == 4 {
		emitPreloadTw(g, 3)
		tw = preloadedTw
	}
	g.op("MOVQ s+24(FP), CX")
	g.label(name + "_q")
	g.op("CMPQ CX, $%d", per)
	if tail {
		g.op("JL %s_qt", name)
	} else {
		g.op("JL %s_row", name)
	}
	stridedPF.ask(g, name+"_w")
	body8(g, radix, wide, tw, indexStore, true)
	g.op("SUBQ $%d, CX", per)
	g.op("JMP %s_q", name)
	if tail {
		g.label(name + "_qt")
		g.op("TESTQ CX, CX")
		g.op("JZ %s_row", name)
		stridedPF.ask(g, name+"_t")
		body8(g, radix, tail128, tw, indexStore, true)
	}
	g.label(name + "_row")
	g.comment("row advance: DI += (r-1)*s16")
	if radix == 4 {
		g.op("ADDQ R13, DI")
	} else {
		g.op("MOVQ R12, AX")
		g.op("SHLQ $3, AX")
		g.op("SUBQ R12, AX")
		g.op("ADDQ AX, DI")
	}
	g.op("INCQ DX")
	g.op("JMP %s_p", name)
	g.label(name + "_done")
	stridedPF.ret(g)
	g.op("VZEROUPPER")
	g.op("RET")
	g.ln("")
}

// emitPairsKernel writes the s==1 specialisation: wide.step/16 butterflies
// per iteration over p, contiguous loads, lane-paired twiddles, then (when
// tail is set) one XMM butterfly for an odd m. Without a tail the caller
// guarantees m is a multiple of the wide step.
func emitPairsKernel(g *gen, name string, radix int, wide mode, tail bool) {
	per := wide.step / 16
	g.ln("// func %s(dst, src *complex128, m int, jim float64, tw *twiddlePtrs, pf Prefetch) uintptr", name)
	g.ln("TEXT ·%s(SB), NOSPLIT, $%d-72", name, frame8(radix, wide))
	g.op("MOVQ dst+0(FP), DI")
	g.op("MOVQ src+8(FP), SI")
	g.op("MOVQ m+16(FP), R10")
	g.op("SHLQ $4, R10") // 16*m (s==1 collapses sm16 to this)
	g.op("LEAQ (R10)(R10*2), R11")
	g.op("MOVQ tw+32(FP), BX")
	pairsPF.load(g)
	g.op("VBROADCASTSD jim+24(FP), %s", wide.r(15))
	g.op("VXORPD signEven<>(SB), %s, %s", wide.r(15), wide.r(15))
	if radix == 8 {
		g.op("VBROADCASTSD sqrtHalf<>(SB), %s", wide.r(14))
	}
	g.op("XORQ DX, DX")
	pm := wide
	pm.pairs = true
	tm := tail128
	tm.pairs = true
	store := pairStore(radix)
	g.label(name + "_p")
	g.op("MOVQ m+16(FP), CX")
	g.op("SUBQ DX, CX")
	g.op("CMPQ CX, $%d", per)
	if tail {
		g.op("JL %s_t", name)
	} else {
		g.op("JL %s_done", name)
	}
	g.op("MOVQ DX, R8")
	g.op("SHLQ $4, R8")
	pairsPF.ask(g, name+"_w")
	if wide.pfx == "Z" {
		body8(g, radix, pm, pairTw, heldStore(hold8), false)
		flushHeld(g, radix, pm.step, hold8)
	} else {
		body8(g, radix, pm, pairTw, store, false)
	}
	what := "pair"
	if per == 4 {
		what = "quad"
	}
	g.comment("the body advanced DI by %d; butterfly %s spans %d bytes", pm.step, what, per*radix*16)
	g.op("ADDQ $%d, DI", per*radix*16-pm.step)
	g.op("ADDQ $%d, DX", per)
	g.op("JMP %s_p", name)
	if tail {
		g.label(name + "_t")
		g.op("TESTQ CX, CX")
		g.op("JZ %s_done", name)
		g.op("MOVQ DX, R8")
		g.op("SHLQ $4, R8")
		pairsPF.ask(g, name+"_t")
		body8(g, radix, tm, pairTw, store, false)
	}
	g.label(name + "_done")
	pairsPF.ret(g)
	g.op("VZEROUPPER")
	g.op("RET")
	g.ln("")
}

// ---------------------------------------------------------------------------
// Fused radix-16 kernels: two radix-4 rank stages in one register sweep.
//
// The fused butterfly is y[16p+r] = W_r[p] * sum_K w16^(rK) x[p+K*m],
// K = kB + 4*kA, r = 4*jB + jA, evaluated as
//
//	pass A (per residue kB): plain DFT4 over kA -> u[4*jA+kB], then the
//	  inter-rank rotation u *= w16^(jA*kB);
//	pass B (per jA): DFT4 over kB -> output slots jA, jA+4, jA+8, jA+12,
//	  each multiplied by its table twiddle W_r.
//
// The 16 intermediates u do not fit the YMM file next to the four
// constants, so pass A spills them to 32-byte frame slots (u[slot] at
// 32*slot(SP)) and pass B reloads four at a time. Register map extends
// the radix-4/8 one:
//
//	R15 pass-A column cursor (SI + kB*sm16); free again in pass B, where
//	    lazyTw reuses it
//	R13 12*s16 (store leg stride; the radix-4/8 3*s16 is not needed, and
//	    DI's row advance is recomputed in AX at row end)
//	AX  pass-B store base DI + jA*s16 (non-pairs only)
//	Y12 sinPi8  Y13 cosPi8  Y14 sqrtHalf  Y15 jimalt
// ---------------------------------------------------------------------------

// dft4Regs: 4-point DIF butterfly on V0..V3 left in registers
// (u0..u3 = (a+c)+(b+d), (a-c)+j(b-d), (a+c)-(b+d), (a-c)-j(b-d)),
// no twiddles, no stores. Clobbers V4..V7.
func dft4Regs(g *gen, m mode) {
	s := pd
	g.op("VADD%s %s, %s, %s", s, m.r(2), m.r(0), m.r(4)) // apc
	g.op("VSUB%s %s, %s, %s", s, m.r(2), m.r(0), m.r(5)) // amc
	g.op("VADD%s %s, %s, %s", s, m.r(3), m.r(1), m.r(6)) // bpd
	g.op("VSUB%s %s, %s, %s", s, m.r(3), m.r(1), m.r(7)) // bmd
	g.op("VADD%s %s, %s, %s", s, m.r(6), m.r(4), m.r(0)) // u0
	g.op("VSUB%s %s, %s, %s", s, m.r(6), m.r(4), m.r(2)) // u2
	g.op("VPERMILPD %s, %s, %s", m.imm(0x5), m.r(7), m.r(7))
	g.op("VMOVAPD %s, %s", m.r(5), m.r(1))
	g.op("VFMADD231%s %s, %s, %s", s, m.r(15), m.r(7), m.r(1))  // u1 = amc + jbmd
	g.op("VFNMADD231%s %s, %s, %s", s, m.r(15), m.r(7), m.r(5)) // u3 = amc - jbmd
	g.op("VMOVAPD %s, %s", m.r(5), m.r(3))
}

// rot16 multiplies register `reg` in place by w16^e = cos(e*pi/8) +
// jim*i*sin(e*pi/8), e in {1,2,3,4,6,9}, using jim*i*u = swap(u)*jimalt.
// Clobbers V4 (except e=4, which is a pure swap-and-scale).
func rot16(g *gen, m mode, reg, e int) {
	s := pd
	u, t := m.r(reg), m.r(4)
	switch e {
	case 4: // w16^4 = jim*i
		g.op("VPERMILPD %s, %s, %s", m.imm(0x5), u, u)
		g.op("VMUL%s %s, %s, %s", s, m.r(15), u, u)
	case 2, 6: // h*(1 + jim*i), h*(-1 + jim*i)
		g.op("VPERMILPD %s, %s, %s", m.imm(0x5), u, t)
		g.op("VMUL%s %s, %s, %s", s, m.r(15), t, t)
		if e == 2 {
			g.op("VADD%s %s, %s, %s", s, t, u, u)
		} else {
			g.op("VSUB%s %s, %s, %s", s, u, t, u)
		}
		g.op("VMUL%s %s, %s, %s", s, m.r(14), u, u)
	case 1, 9: // c1 + jim*i*s1; e=9 is its negation
		g.op("VPERMILPD %s, %s, %s", m.imm(0x5), u, t)
		g.op("VMUL%s %s, %s, %s", s, m.r(15), t, t)
		g.op("VMUL%s %s, %s, %s", s, m.r(13), u, u)
		g.op("VFMADD231%s %s, %s, %s", s, m.r(12), t, u)
		if e == 9 {
			g.op("VXORPD signAll<>(SB), %s, %s", u, u)
		}
	case 3: // s1 + jim*i*c1
		g.op("VPERMILPD %s, %s, %s", m.imm(0x5), u, t)
		g.op("VMUL%s %s, %s, %s", s, m.r(15), t, t)
		g.op("VMUL%s %s, %s, %s", s, m.r(12), u, u)
		g.op("VFMADD231%s %s, %s, %s", s, m.r(13), t, u)
	}
}

// store16: output leg k at AX + (k/4)*4*s16, where the radix16Body set
// AX = DI + (k%4)*s16 for the current pass-B group (k%4 == jA is
// constant within a dft4Inter call). R13 holds 12*s16.
func store16(g *gen, m mode, k int, reg string) {
	switch k >> 2 {
	case 0:
		g.op("%s %s, (AX)", movOp, reg)
	case 1:
		g.op("%s %s, (AX)(R12*4)", movOp, reg)
	case 2:
		g.op("%s %s, (AX)(R12*8)", movOp, reg)
	case 3:
		g.op("%s %s, (AX)(R13*1)", movOp, reg)
	}
}

// radix16Body: one fused butterfly (vec256: two q elements). interStores
// selects the strided store16 path (non-pairs), which needs the AX base
// bumped per jA group; pairs mode stores via immediate displacements.
func radix16Body(g *gen, m mode, tw twiddleInter, store storeInter, interStores bool) {
	verb := "spill"
	if m.pfx == "Z" {
		verb = "park in Z16..Z31"
	}
	g.comment("pass A: per residue kB, DFT4 over kA + inter-rank rotation, %s", verb)
	g.op("MOVQ SI, R15")
	for kB := 0; kB < 4; kB++ {
		g.op("%s (R15), %s", movOp, m.r(0))
		g.op("%s (R15)(R10*4), %s", movOp, m.r(1))
		g.op("%s (R15)(R10*8), %s", movOp, m.r(2))
		g.op("%s (R15)(R11*4), %s", movOp, m.r(3))
		dft4Regs(g, m)
		for jA := 1; jA < 4; jA++ {
			if e := jA * kB; e != 0 {
				rot16(g, m, jA, e)
			}
		}
		for jA := 0; jA < 4; jA++ {
			m.park(g, m.r(jA), 4*jA+kB)
		}
		if kB < 3 {
			g.op("ADDQ R10, R15")
		}
	}
	g.comment("pass B: per jA, DFT4 over kB -> twiddled legs jA, jA+4, jA+8, jA+12")
	for jA := 0; jA < 4; jA++ {
		if interStores {
			if jA == 0 {
				g.op("MOVQ DI, AX")
			} else {
				g.op("ADDQ R12, AX")
			}
		}
		for kB := 0; kB < 4; kB++ {
			m.unpark(g, 4*jA+kB, m.r(kB))
		}
		dft4Inter(g, m, [4]int{jA, jA + 4, jA + 8, jA + 12}, jA != 0, tw, store)
	}
	g.op("ADDQ $%d, SI", m.step)
	g.op("ADDQ $%d, DI", m.step)
}

// frame16 is the radix-16 kernels' frame: sixteen 32-byte spill slots, or
// nothing when wide parks the intermediates in registers.
func frame16(wide mode) int {
	if wide.pfx == "Z" {
		return 0
	}
	return 512
}

// emit16Consts hoists jimalt and the three rotation magnitudes into
// V15..V12 of the widest mode (narrower modes read their low lanes).
func emit16Consts(g *gen, wide mode, jimArg string) {
	g.op("VBROADCASTSD %s, %s", jimArg, wide.r(15))
	g.op("VXORPD signEven<>(SB), %s, %s", wide.r(15), wide.r(15)) // jimalt
	g.op("VBROADCASTSD sqrtHalf<>(SB), %s", wide.r(14))
	g.op("VBROADCASTSD cosPi8<>(SB), %s", wide.r(13))
	g.op("VBROADCASTSD sinPi8<>(SB), %s", wide.r(12))
}

// emitInterKernel16 writes the strided fused radix-16 kernel: wide.step/16
// q elements per iteration, then (when tail is set) one XMM iteration for an
// odd stride. Without a tail the caller guarantees s is a multiple of the
// wide step.
func emitInterKernel16(g *gen, name string, wide mode, tail bool) {
	per := wide.step / 16
	g.ln("// func %s(dst, src *complex128, m, s int, jim float64, tw *twiddle16Ptrs, pf Prefetch) uintptr", name)
	g.ln("TEXT ·%s(SB), NOSPLIT, $%d-80", name, frame16(wide))
	g.op("MOVQ dst+0(FP), DI")
	g.op("MOVQ src+8(FP), SI")
	g.op("MOVQ s+24(FP), R12")
	g.op("SHLQ $4, R12") // s16
	g.op("MOVQ m+16(FP), R10")
	g.op("IMULQ R12, R10") // sm16
	g.op("LEAQ (R10)(R10*2), R11")
	g.op("MOVQ R12, R13")
	g.op("SHLQ $2, R13")
	g.op("LEAQ (R13)(R13*2), R13") // 12*s16
	g.op("MOVQ tw+40(FP), BX")
	stridedPF.load(g)
	emit16Consts(g, wide, "jim+32(FP)")
	g.op("XORQ DX, DX")
	g.label(name + "_p")
	g.op("CMPQ DX, m+16(FP)")
	g.op("JGE %s_done", name)
	g.op("MOVQ DX, R8")
	g.op("SHLQ $4, R8") // p16
	g.op("MOVQ s+24(FP), CX")
	g.label(name + "_q")
	g.op("CMPQ CX, $%d", per)
	if tail {
		g.op("JL %s_qt", name)
	} else {
		g.op("JL %s_row", name)
	}
	stridedPF.ask(g, name+"_w")
	radix16Body(g, wide, lazyTw, store16, true)
	g.op("SUBQ $%d, CX", per)
	g.op("JMP %s_q", name)
	if tail {
		g.label(name + "_qt")
		g.op("TESTQ CX, CX")
		g.op("JZ %s_row", name)
		stridedPF.ask(g, name+"_t")
		radix16Body(g, tail128, lazyTw, store16, true)
	}
	g.label(name + "_row")
	g.comment("row advance: DI += 15*s16 (AX is dead here)")
	g.op("MOVQ R12, AX")
	g.op("SHLQ $4, AX")
	g.op("SUBQ R12, AX")
	g.op("ADDQ AX, DI")
	g.op("INCQ DX")
	g.op("JMP %s_p", name)
	g.label(name + "_done")
	stridedPF.ret(g)
	g.op("VZEROUPPER")
	g.op("RET")
	g.ln("")
}

// emitPairsKernel16 writes the s==1 fused radix-16 specialisation:
// wide.step/16 butterflies per iteration, lane-paired twiddles,
// immediate-offset per-lane stores, then (when tail is set) one XMM
// butterfly for an odd m. Without a tail the caller guarantees m is a
// multiple of the wide step.
func emitPairsKernel16(g *gen, name string, wide mode, tail bool) {
	per := wide.step / 16
	g.ln("// func %s(dst, src *complex128, m int, jim float64, tw *twiddle16Ptrs, pf Prefetch) uintptr", name)
	g.ln("TEXT ·%s(SB), NOSPLIT, $%d-72", name, frame16(wide))
	g.op("MOVQ dst+0(FP), DI")
	g.op("MOVQ src+8(FP), SI")
	g.op("MOVQ m+16(FP), R10")
	g.op("SHLQ $4, R10") // 16*m
	g.op("LEAQ (R10)(R10*2), R11")
	g.op("MOVQ tw+32(FP), BX")
	pairsPF.load(g)
	emit16Consts(g, wide, "jim+24(FP)")
	g.op("XORQ DX, DX")
	pm := wide
	pm.pairs = true
	tm := tail128
	tm.pairs = true
	store := pairStore(16)
	g.label(name + "_p")
	g.op("MOVQ m+16(FP), CX")
	g.op("SUBQ DX, CX")
	g.op("CMPQ CX, $%d", per)
	if tail {
		g.op("JL %s_t", name)
	} else {
		g.op("JL %s_done", name)
	}
	g.op("MOVQ DX, R8")
	g.op("SHLQ $4, R8")
	pairsPF.ask(g, name+"_w")
	if wide.pfx == "Z" {
		radix16Body(g, pm, pairTw, heldStore(hold16), false)
		flushHeld(g, 16, pm.step, hold16)
	} else {
		radix16Body(g, pm, pairTw, store, false)
	}
	what := "pair"
	if per == 4 {
		what = "quad"
	}
	g.comment("the body advanced DI by %d; butterfly %s spans %d bytes", pm.step, what, per*16*16)
	g.op("ADDQ $%d, DI", per*16*16-pm.step)
	g.op("ADDQ $%d, DX", per)
	g.op("JMP %s_p", name)
	if tail {
		g.label(name + "_t")
		g.op("TESTQ CX, CX")
		g.op("JZ %s_done", name)
		g.op("MOVQ DX, R8")
		g.op("SHLQ $4, R8")
		pairsPF.ask(g, name+"_t")
		radix16Body(g, tm, pairTw, store, false)
	}
	g.label(name + "_done")
	pairsPF.ret(g)
	g.op("VZEROUPPER")
	g.op("RET")
	g.ln("")
}

// ---------------------------------------------------------------------------
// Sink codelets: the last Stockham pass (m = 1) of a radix-8 or fused
// radix-16 chain, storing each output vector through a blocked rotation with
// streaming stores instead of into the pencil's buffer (kernels.Sink).
//
// At m = 1 leg k of q is pencil element e = k·s + q, and the rotation sends
// element e to byte (e/μ)·js + (e%μ)·16 past the pencil's base: μ-blocks of
// whole lines js bytes apart. With s a multiple of μ, leg k sits a fixed
// ls = (s/μ)·js bytes past leg 0, so the strided bodies' store16 and
// indexStore addressing holds with R12 = ls and R13 = 12·ls (3·ls at radix
// 8). DI walks the vectors of μ-block q/μ and jumps to the next block at its
// end: DX counts the block's bytes down, and the jump js − μ·16 comes from
// the argument block. A pairs stage at m = 1 (s = 1) is one butterfly a
// pencil, which every width runs in the 128-bit body; its legs land at the
// byte offsets the Go wrapper tabulates (R12 points at the table, R15 reads
// it). Every store is VMOVNTPD to a line-aligned block of whole lines (the
// wrapper's contract). A ZMM store writes a whole line. A YMM body writes
// half of each of its legs' lines, and a half line left in a write-combining
// buffer while the body's other fifteen legs stream is evicted as a partial
// write, measured 20× slower than the buffered pass and the gather; so the
// 256-bit kernel runs its bodies in pairs, the first holding its legs in the
// frame and the second writing each line's two halves back to back. With
// scale set each vector is first multiplied by complex(scale, 0)
// (sinkScale). None of them fences.
// ---------------------------------------------------------------------------

// sinkMasks are a sink codelet's scale multipliers, re = [s,0,s,0…] and
// im = [0,s,0,s…], kept in its frame from byte off (two vectors of the
// kernel's widest mode) so that the bodies, whose every register is taken,
// read them as memory operands. The 512-bit kernels also set K1 and K2 to
// the even and odd lanes, which stand in for VADDSUBPD (no EVEX form).
func sinkMasks(g *gen, wide mode, arg string, off int) {
	g.op("VBROADCASTSD %s, %s", arg, wide.r(0))
	g.op("VANDPD laneRe<>(SB), %s, %s", wide.r(0), wide.r(1))
	g.op("VANDPD laneIm<>(SB), %s, %s", wide.r(0), wide.r(0))
	g.op("VMOVUPD %s, %d(SP)", wide.r(1), off)
	g.op("VMOVUPD %s, %d(SP)", wide.r(0), off+wide.step)
	if wide.pfx == "Z" {
		g.op("MOVQ $0x55, AX")
		g.op("KMOVW AX, K1")
		g.op("MOVQ $0xAA, AX")
		g.op("KMOVW AX, K2")
	}
}

// sinkScale multiplies the vector in reg by complex(s, 0) with emitScale's
// operation sequence — the bits of fft1d.Scale and of layout's scaling
// gather — reading the multipliers sinkMasks stored at off(SP) and off+w(SP).
// a and b are scratch registers the body does not hold live at this store.
func sinkScale(g *gen, m mode, reg string, a, b, off, w int) {
	g.op("VMOVDDUP %s, %s", reg, m.r(a))
	g.op("VPERMILPD %s, %s, %s", m.imm(0xF), reg, m.r(b))
	g.op("VMULPD %d(SP), %s, %s", off, m.r(a), m.r(a))
	g.op("VMULPD %d(SP), %s, %s", off+w, m.r(b), m.r(b))
	if m.pfx == "Z" {
		g.op("VSUBPD %s, %s, K1, %s", m.r(b), m.r(a), reg)
		g.op("VADDPD %s, %s, K2, %s", m.r(b), m.r(a), reg)
		return
	}
	g.op("VADDSUBPD %s, %s, %s", m.r(b), m.r(a), reg)
}

// sinkOut is where a sink codelet's legs go: addr(k, disp) is leg k's
// address displaced by disp bytes, scaleOff the frame offset of the scale
// multipliers (−1: no scale) and heldOff that of the 32-byte slots a
// paired YMM body holds its legs in.
type sinkOut struct {
	radix, scaleOff, w, heldOff int
	addr                        func(g *gen, k, disp int) string
}

// Which half of a line a store writes: all of it (ZMM, and the 128-bit
// pairs body), or the first or second half of a paired YMM body.
const (
	whole = iota
	firstHalf
	secondHalf
)

// store is the sink codelets' store: leg k's vector, scaled when scaleOff
// ≥ 0, leaves by VMOVNTPD at addr(k) — or, for a first half, waits in its
// frame slot, which the second half's store writes 32 bytes before its own.
// dft4Inter stores the first leg of each call while V6 and V7 are live and
// V2, V3 free, and the others with V6 and V7 free; legs 0–3 of radix 16 and
// 0–1 of radix 8 are first legs.
func (o sinkOut) store(half int) storeInter {
	return func(g *gen, m mode, k int, reg string) {
		a, b := 6, 7
		if k < o.radix/4 {
			a, b = 2, 3
		}
		if o.scaleOff >= 0 {
			sinkScale(g, m, reg, a, b, o.scaleOff, o.w)
		}
		switch half {
		case firstHalf:
			g.op("VMOVUPD %s, %d(SP)", reg, o.heldOff+32*k)
		case secondHalf:
			g.op("VMOVUPD %d(SP), %s", o.heldOff+32*k, m.r(a))
			g.op("VMOVNTPD %s, %s", m.r(a), o.addr(g, k, -32))
			g.op("VMOVNTPD %s, %s", reg, o.addr(g, k, 0))
		default:
			g.op("VMOVNTPD %s, %s", reg, o.addr(g, k, 0))
		}
	}
}

// disp renders a displacement: none for 0.
func disp(d int) string {
	if d == 0 {
		return ""
	}
	return fmt.Sprint(d)
}

// sinkAddr16 and sinkAddr8 are store16's and indexStore's addresses.
func sinkAddr16(_ *gen, k, d int) string {
	return disp(d) + [...]string{"(AX)", "(AX)(R12*4)", "(AX)(R12*8)", "(AX)(R13*1)"}[k>>2]
}

func sinkAddr8(_ *gen, k, d int) string {
	base := "DI"
	if k >= 4 {
		base = "AX"
	}
	return disp(d) + fmt.Sprintf([...]string{"(%s)", "(%s)(R12*1)", "(%s)(R12*2)", "(%s)(R13*1)"}[k%4], base)
}

// sinkPairsAddr reads leg k's byte offset from the wrapper's table.
func sinkPairsAddr(g *gen, k, _ int) string {
	g.op("MOVQ %d(R12), R15", 8*k)
	return "(DI)(R15*1)"
}

// sinkFrame is a sink codelet's frame: the body's spill slots, then, for a
// paired YMM kernel, a 32-byte slot a leg to hold a first half in, then the
// two scale multipliers of width bytes each when it scales.
func sinkFrame(radix int, wide mode, paired, scale bool) (frame, heldOff, maskOff int) {
	frame = frame8(radix, wide)
	if radix == 16 {
		frame = frame16(wide)
	}
	heldOff, maskOff = frame, -1
	if paired {
		frame += 32 * radix
	}
	if scale {
		maskOff = frame
		frame += 2 * wide.step
	}
	return frame, heldOff, maskOff
}

// nosplitFrame bounds the frame a NOSPLIT function may take: the linker
// refuses a nosplit function that grows the stack past 792 bytes.
const nosplitFrame = 768

// sinkPF is the cursor's place in the strided sink codelets' argument
// block, sinkPairsPF in the pairs ones'.
var (
	sinkPF      = cursor{off: 72}
	sinkPairsPF = cursor{off: 48}
)

// emitSinkConsts hoists the body's constants: jimalt, plus sqrtHalf at radix
// 8 and the three rotation magnitudes at radix 16.
func emitSinkConsts(g *gen, radix int, wide mode, jimArg string) {
	if radix == 16 {
		emit16Consts(g, wide, jimArg)
		return
	}
	g.op("VBROADCASTSD %s, %s", jimArg, wide.r(15))
	g.op("VXORPD signEven<>(SB), %s, %s", wide.r(15), wide.r(15))
	g.op("VBROADCASTSD sqrtHalf<>(SB), %s", wide.r(14))
}

// emitSinkKernel writes the strided sink codelet of a radix-8 or radix-16
// m = 1 stage: wide.step/16 q elements a body, a line's worth of q a loop
// iteration (one ZMM body, or two YMM bodies whose first holds its legs for
// the second to write whole lines), s a multiple of μ and so of four (no
// tail).
func emitSinkKernel(g *gen, name string, radix int, wide mode, scale bool) {
	paired := wide.pfx != "Z"
	frame, heldOff, maskOff := sinkFrame(radix, wide, paired, scale)
	twType := "twiddlePtrs"
	if radix == 16 {
		twType = "twiddle16Ptrs"
	}
	// A frame past the linker's nosplit limit (the paired radix-16 one)
	// takes the stack check a NOSPLIT leaf skips.
	flag := "NOSPLIT"
	if frame > nosplitFrame {
		flag = "0"
	}
	g.ln("// func %s(dst, src *complex128, s int, jim float64, tw *%s, ls, bb, jump int, scale float64, pf Prefetch) uintptr", name, twType)
	g.ln("TEXT ·%s(SB), %s, $%d-104", name, flag, frame)
	g.op("MOVQ dst+0(FP), DI")
	g.op("MOVQ src+8(FP), SI")
	g.op("MOVQ s+16(FP), R10")
	g.op("SHLQ $4, R10") // sm16 = s16 at m = 1
	g.op("LEAQ (R10)(R10*2), R11")
	g.op("MOVQ ls+40(FP), R12")
	if radix == 16 {
		g.op("MOVQ R12, R13")
		g.op("SHLQ $2, R13")
		g.op("LEAQ (R13)(R13*2), R13") // 12*ls
	} else {
		g.op("LEAQ (R12)(R12*2), R13") // 3*ls
	}
	g.op("MOVQ tw+32(FP), BX")
	g.op("XORQ R8, R8") // p16: the one row, p = 0
	if scale {
		sinkMasks(g, wide, "scale+64(FP)", maskOff)
	}
	sinkPF.load(g)
	emitSinkConsts(g, radix, wide, "jim+24(FP)")
	g.op("MOVQ bb+48(FP), DX")
	g.op("MOVQ s+16(FP), CX")
	out := sinkOut{radix: radix, scaleOff: maskOff, w: wide.step, heldOff: heldOff, addr: sinkAddr8}
	if radix == 16 {
		out.addr = sinkAddr16
	}
	body := func(half int) {
		if radix == 16 {
			radix16Body(g, wide, lazyTw, out.store(half), true)
		} else {
			radix8Body(g, wide, lazyTw, out.store(half), true)
		}
	}
	g.label(name + "_q")
	g.op("CMPQ CX, $4")
	g.op("JL %s_done", name)
	sinkPF.ask(g, name+"_w")
	if paired {
		body(firstHalf)
		sinkPF.ask(g, name+"_h")
		body(secondHalf)
	} else {
		body(whole)
	}
	g.comment("next μ-block: DI jumps js - bb once the block's bytes are written")
	g.op("SUBQ $64, DX")
	g.op("JNZ %s_n", name)
	g.op("ADDQ jump+56(FP), DI")
	g.op("MOVQ bb+48(FP), DX")
	g.label(name + "_n")
	g.op("SUBQ $4, CX")
	g.op("JMP %s_q", name)
	g.label(name + "_done")
	sinkPF.ret(g)
	g.op("VZEROUPPER")
	g.op("RET")
	g.ln("")
}

// emitSinkPairs writes the pairs sink codelet of a radix-8 or radix-16
// m = 1, s = 1 stage: one butterfly, the 128-bit pairs body, legs at the
// tabulated offsets.
func emitSinkPairs(g *gen, name string, radix int, scale bool) {
	frame, _, maskOff := sinkFrame(radix, vec256, false, scale)
	twType := "twiddlePtrs"
	if radix == 16 {
		twType = "twiddle16Ptrs"
	}
	g.ln("// func %s(dst, src *complex128, jim float64, tw *%s, offs *[16]int, scale float64, pf Prefetch) uintptr", name, twType)
	g.ln("TEXT ·%s(SB), NOSPLIT, $%d-80", name, frame)
	g.op("MOVQ dst+0(FP), DI")
	g.op("MOVQ src+8(FP), SI")
	g.op("MOVQ $16, R10") // 16*m
	g.op("MOVQ $48, R11")
	g.op("MOVQ tw+24(FP), BX")
	g.op("MOVQ offs+32(FP), R12")
	g.op("XORQ R8, R8")
	if scale {
		sinkMasks(g, vec256, "scale+40(FP)", maskOff)
	}
	sinkPairsPF.load(g)
	emitSinkConsts(g, radix, vec256, "jim+16(FP)")
	sinkPairsPF.ask(g, name+"_t")
	tm := tail128
	tm.pairs = true
	st := sinkOut{radix: radix, scaleOff: maskOff, w: vec256.step, addr: sinkPairsAddr}.store(whole)
	if radix == 16 {
		radix16Body(g, tm, pairTw, st, false)
	} else {
		radix8Body(g, tm, pairTw, st, false)
	}
	sinkPairsPF.ret(g)
	g.op("VZEROUPPER")
	g.op("RET")
	g.ln("")
}

// ---------------------------------------------------------------------------
// Store-fold epilogue kernel: one leg of the trailing trivial-twiddle
// radix-4 butterfly, computed from four cache-hot buffer streams into the
// scatter staging slice. dst[i] is
//
//	leg 0: (z0+z2) + (z1+z3)
//	leg 1: (z0-z2) + jim*i*(z1-z3)
//	leg 2: (z0+z2) - (z1+z3)
//	leg 3: (z0-z2) - jim*i*(z1-z3)
//
// with jim*i*t = swap(t)*jimalt as everywhere else. All five slices are
// walked with one shared byte offset (BX) so the loop advances a single
// register.
// ---------------------------------------------------------------------------

// foldLegCompute emits the arithmetic of one vector (or XMM tail)
// iteration of fold leg `leg`, reading the four streams at shared byte
// offset BX and leaving the result in V0. V1 scratch; V15 = jimalt.
func foldLegCompute(g *gen, m mode, leg int) {
	s := pd
	if leg == 0 || leg == 2 {
		g.op("%s (SI)(BX*1), %s", movOp, m.r(0))
		g.op("VADD%s (R9)(BX*1), %s, %s", s, m.r(0), m.r(0))
		g.op("%s (R8)(BX*1), %s", movOp, m.r(1))
		g.op("VADD%s (R10)(BX*1), %s, %s", s, m.r(1), m.r(1))
		if leg == 0 {
			g.op("VADD%s %s, %s, %s", s, m.r(1), m.r(0), m.r(0))
		} else {
			g.op("VSUB%s %s, %s, %s", s, m.r(1), m.r(0), m.r(0))
		}
	} else {
		g.op("%s (SI)(BX*1), %s", movOp, m.r(0))
		g.op("VSUB%s (R9)(BX*1), %s, %s", s, m.r(0), m.r(0))
		g.op("%s (R8)(BX*1), %s", movOp, m.r(1))
		g.op("VSUB%s (R10)(BX*1), %s, %s", s, m.r(1), m.r(1))
		g.op("VPERMILPD $0x5, %s, %s", m.r(1), m.r(1))
		if leg == 1 {
			g.op("VFMADD231%s %s, %s, %s", s, m.r(15), m.r(1), m.r(0))
		} else {
			g.op("VFNMADD231%s %s, %s, %s", s, m.r(15), m.r(1), m.r(0))
		}
	}
}

// foldLegBody is foldLegCompute plus the contiguous store at the same
// shared offset, for the scratch-buffer fold kernel.
func foldLegBody(g *gen, m mode, leg int) {
	foldLegCompute(g, m, leg)
	g.op("%s %s, (DI)(BX*1)", movOp, m.r(0))
}

// emitFoldKernel writes the four-leg fold epilogue. One TEXT symbol with a
// leg dispatch at entry; each leg gets its own vector loop plus XMM tail.
func emitFoldKernel(g *gen, name string) {
	g.ln("// func %s(dst, z0, z1, z2, z3 *complex128, n, leg int, jim float64)", name)
	g.ln("TEXT ·%s(SB), NOSPLIT, $0-64", name)
	g.op("MOVQ dst+0(FP), DI")
	g.op("MOVQ z0+8(FP), SI")
	g.op("MOVQ z1+16(FP), R8")
	g.op("MOVQ z2+24(FP), R9")
	g.op("MOVQ z3+32(FP), R10")
	g.op("MOVQ n+40(FP), CX")
	g.op("VBROADCASTSD jim+56(FP), Y15")
	g.op("VXORPD signEven<>(SB), Y15, Y15") // jimalt
	g.op("XORQ BX, BX")
	g.op("MOVQ leg+48(FP), AX")
	for leg := 1; leg < 4; leg++ {
		g.op("CMPQ AX, $%d", leg)
		g.op("JE %s_leg%d", name, leg)
	}
	for leg := 0; leg < 4; leg++ {
		if leg > 0 {
			g.label(fmt.Sprintf("%s_leg%d", name, leg))
		}
		g.label(fmt.Sprintf("%s_l%d_v", name, leg))
		g.op("CMPQ CX, $2")
		g.op("JL %s_l%d_t", name, leg)
		foldLegBody(g, vec256, leg)
		g.op("ADDQ $32, BX")
		g.op("SUBQ $2, CX")
		g.op("JMP %s_l%d_v", name, leg)
		g.label(fmt.Sprintf("%s_l%d_t", name, leg))
		g.op("TESTQ CX, CX")
		g.op("JZ %s_done", name)
		foldLegBody(g, tail128, leg)
		g.op("JMP %s_done", name)
	}
	g.label(name + "_done")
	g.op("VZEROUPPER")
	g.op("RET")
	g.ln("")
}

// emitScaleConsts broadcasts the float64 argument at `arg` into the two
// multiplier vectors of emitScale: re = [s,0,s,0] and im = [0,s,0,s]. It
// broadcasts into im first and zeroes Y12.
func emitScaleConsts(g *gen, arg, re, im string) {
	g.op("VBROADCASTSD %s, %s", arg, im)
	g.op("VXORPD Y12, Y12, Y12")
	g.op("VBLENDPD $0xA, Y12, %s, %s", im, re)
	g.op("VBLENDPD $0x5, Y12, %s, %s", im, im)
}

// emitScale multiplies the two complex128 in register y by complex(s, 0)
// with exactly the operation sequence the Go compiler emits for
// x *= complex(s, 0) — re·s − im·0 and re·0 + im·s, the data operand first
// in every multiply and the re-product first in the add and the subtract,
// unfused — so results, NaN payloads included, are the bits of fft1d.Scale.
// re and im come from emitScaleConsts; Y2 and Y3 are scratch.
func emitScale(g *gen, y, re, im string) {
	g.op("VMOVDDUP %s, Y2", y)        // [re, re]
	g.op("VPERMILPD $0xF, %s, Y3", y) // [im, im]
	g.op("VMULPD %s, Y2, Y2", re)     // [re·s, re·0]
	g.op("VMULPD %s, Y3, Y3", im)     // [im·0, im·s]
	g.op("VADDSUBPD Y3, Y2, %s", y)   // [re·s − im·0, re·0 + im·s]
}

// prefetchW emits PREFETCHW (reg), which Go's assembler has no mnemonic for,
// as its bytes — 0F 0D /1 with reg as the ModRM base, REX.B for R8–R15 — with
// the mnemonic in a trailing comment. Only the plain register-indirect form
// the kernels use is encoded: SP, BP, R12 and R13 as a base would need a SIB
// byte or a displacement.
func prefetchW(g *gen, reg string) {
	n := slices.Index([]string{"AX", "CX", "DX", "BX", "SP", "BP", "SI", "DI",
		"R8", "R9", "R10", "R11", "R12", "R13", "R14", "R15"}, reg)
	if n < 0 || n&7 == 4 || n&7 == 5 {
		log.Fatalf("prefetchW: cannot encode (%s)", reg)
	}
	b := []byte{0x0F, 0x0D, 0x08 | byte(n&7)}
	if n >= 8 {
		b = append([]byte{0x41}, b...) // REX.B
	}
	ops := make([]string, len(b))
	for i, x := range b {
		ops[i] = fmt.Sprintf("BYTE $0x%02X", x)
	}
	g.op("%s // PREFETCHW (%s)", strings.Join(ops, "; "), reg)
}

// emitPrefetchAhead is a cached store kernel's read-for-ownership prefetch:
// PREFETCHW on every 64-byte line the bytes [block+R11, block+R11+n) touch,
// where block is the address of the block about to be stored and R11 the
// prefetch distance in bytes (zero skips it, at one TESTQ a block). The
// store's ownership requests then overlap each other instead of each
// waiting for the last. Prefetches never fault, so the distance may run past
// the destination. Clobbers R15 and AX.
func emitPrefetchAhead(g *gen, label, block, n string) {
	g.op("TESTQ R11, R11")
	g.op("JZ %s_pfd", label)
	g.op("LEAQ %s, R15", block)
	g.op("ADDQ R11, R15")
	g.op("LEAQ (R15)(%s*1), AX", n)
	g.op("ANDQ $-64, R15")
	g.label(label + "_pf")
	prefetchW(g, "R15")
	g.op("ADDQ $64, R15")
	g.op("CMPQ R15, AX")
	g.op("JB %s_pf", label)
	g.label(label + "_pfd")
}

// emitFoldScatterKernel writes the fused fold+scatter epilogue: the same
// four-leg butterfly, but each blockLen-byte output block goes straight to
// its strided destination — no scratch round trip between the fold and the
// scatter. store is the instruction that writes it: VMOVNTPD for the
// streaming twin (the caller guarantees 32-byte destination alignment; SFENCE
// on exit orders the WC buffers) or VMOVUPD for the cached twin (any
// alignment, no fence). The cached twin takes one more argument, the
// prefetch distance pf in bytes, and prefetches block i+pf/stride for
// ownership before it stores block i (emitPrefetchAhead); streaming stores
// read nothing for ownership, so their twin has neither. Both need even
// block lengths, so there is no tail path. With scale set every output is
// multiplied by the trailing scale argument on its way out (emitScale: the
// bits of fft1d.Scale over the destination afterwards). Register plan:
//
//	DI dst base (already offset to block 0)   SI/R8/R9/R10 z0..z3
//	BX shared source byte offset (input blocks are contiguous)
//	R13 current dst block byte base   DX dst byte offset within block
//	R12 remaining blocks   CX remaining bytes in block
//	AX leg, then the prefetch end   R11 pf   R15 prefetch cursor
//	Y15 jimalt   Y14 [s,0,s,0]   Y13 [0,s,0,s]
func emitFoldScatterKernel(g *gen, name, store string, scale bool) {
	cached := store != "VMOVNTPD"
	args, frame := "dst, z0, z1, z2, z3 *complex128, blocks, bl16, stride16, leg int, jim float64", 80
	if scale {
		args, frame = args+", scale float64", frame+8
	}
	if cached {
		args, frame = args+", pf int", frame+8
	}
	g.ln("// func %s(%s)", name, args)
	g.ln("TEXT ·%s(SB), NOSPLIT, $0-%d", name, frame)
	g.op("MOVQ dst+0(FP), DI")
	g.op("MOVQ z0+8(FP), SI")
	g.op("MOVQ z1+16(FP), R8")
	g.op("MOVQ z2+24(FP), R9")
	g.op("MOVQ z3+32(FP), R10")
	g.op("MOVQ blocks+40(FP), R12")
	g.op("VBROADCASTSD jim+72(FP), Y15")
	g.op("VXORPD signEven<>(SB), Y15, Y15") // jimalt
	if scale {
		emitScaleConsts(g, "scale+80(FP)", "Y14", "Y13")
	}
	if cached {
		g.op("MOVQ pf+%d(FP), R11", frame-8)
	}
	g.op("XORQ BX, BX")
	g.op("XORQ R13, R13")
	g.op("MOVQ leg+64(FP), AX")
	for leg := 1; leg < 4; leg++ {
		g.op("CMPQ AX, $%d", leg)
		g.op("JE %s_leg%d", name, leg)
	}
	for leg := 0; leg < 4; leg++ {
		if leg > 0 {
			g.label(fmt.Sprintf("%s_leg%d", name, leg))
		}
		g.label(fmt.Sprintf("%s_l%d_b", name, leg))
		g.op("TESTQ R12, R12")
		g.op("JZ %s_done", name)
		g.op("MOVQ R13, DX")
		g.op("MOVQ bl16+48(FP), CX")
		if cached {
			emitPrefetchAhead(g, fmt.Sprintf("%s_l%d", name, leg), "(DI)(DX*1)", "CX")
		}
		g.label(fmt.Sprintf("%s_l%d_v", name, leg))
		foldLegCompute(g, vec256, leg)
		if scale {
			emitScale(g, "Y0", "Y14", "Y13")
		}
		g.op("%s Y0, (DI)(DX*1)", store)
		g.op("ADDQ $32, BX")
		g.op("ADDQ $32, DX")
		g.op("SUBQ $32, CX")
		g.op("JNZ %s_l%d_v", name, leg)
		g.op("ADDQ stride16+56(FP), R13")
		g.op("DECQ R12")
		g.op("JMP %s_l%d_b", name, leg)
	}
	g.label(name + "_done")
	if store == "VMOVNTPD" {
		g.op("SFENCE")
	}
	g.op("VZEROUPPER")
	g.op("RET")
	g.ln("")
}

// ---------------------------------------------------------------------------
// Non-temporal block scatter (internal/layout).
// ---------------------------------------------------------------------------

func emitScatterNT(g *gen) {
	g.ln("// func scatterNTBytes(dst, src unsafe.Pointer, blocks, blockBytes, dstOff, dstStride int)")
	g.ln("//")
	g.ln("// Streams `blocks` runs of blockBytes from the packed src to")
	g.ln("// dst+dstOff, advancing dst by dstStride bytes per block, using")
	g.ln("// VMOVNTPD so the stores bypass the cache hierarchy. The Go wrapper")
	g.ln("// guarantees 32-byte destination alignment, blockBytes%%32 == 0, and")
	g.ln("// in-bounds extents. No fence: the caller issues one storeFence per")
	g.ln("// batch of calls, before it publishes the destination.")
	g.ln("TEXT ·scatterNTBytes(SB), NOSPLIT, $0-48")
	emitScatterLoop(g, "ntb", "VMOVNTPD", false)
}

// emitScatterCached writes scatterBytes, the cached twin of scatterNTBytes
// under layout.ScatterBlocks and ScatterBlocksPairs: the same loop with
// VMOVUPD stores, no alignment contract, and the cached fold-scatter's
// prefetch for ownership ahead of every block.
func emitScatterCached(g *gen) {
	g.ln("// func scatterBytes(dst, src unsafe.Pointer, blocks, blockBytes, dstOff, dstStride, pf int)")
	g.ln("//")
	g.ln("// Copies `blocks` runs of blockBytes from the packed src to dst+dstOff,")
	g.ln("// advancing dst by dstStride bytes per block, with cached stores. Before")
	g.ln("// each block it prefetches, for ownership, the lines pf bytes past the")
	g.ln("// block (pf = 0: no prefetch). The Go wrapper guarantees blockBytes%%32 ==")
	g.ln("// 0 and in-bounds extents.")
	g.ln("TEXT ·scatterBytes(SB), NOSPLIT, $0-56")
	emitScatterLoop(g, "scb", movOp, true)
}

// emitScatterLoop is the body of both block scatters: per block, 64 bytes a
// move while they last, then 32; store writes them. With prefetch set the
// distance argument after dstStride goes to R11 and each block starts with
// emitPrefetchAhead.
func emitScatterLoop(g *gen, lbl, store string, prefetch bool) {
	g.op("MOVQ dst+0(FP), DI")
	g.op("MOVQ src+8(FP), SI")
	g.op("MOVQ blocks+16(FP), CX")
	g.op("MOVQ dstOff+32(FP), AX")
	g.op("ADDQ AX, DI")
	g.op("MOVQ dstStride+40(FP), R9")
	if prefetch {
		g.op("MOVQ pf+48(FP), R11")
	}
	g.label(lbl + "_block")
	g.op("TESTQ CX, CX")
	g.op("JZ %s_done", lbl)
	g.op("MOVQ blockBytes+24(FP), DX")
	g.op("MOVQ DI, R10")
	if prefetch {
		emitPrefetchAhead(g, lbl, "(DI)", "DX")
	}
	g.label(lbl + "_64")
	g.op("CMPQ DX, $64")
	g.op("JL %s_32", lbl)
	g.op("VMOVUPD (SI), Y0")
	g.op("VMOVUPD 32(SI), Y1")
	g.op("%s Y0, (R10)", store)
	g.op("%s Y1, 32(R10)", store)
	g.op("ADDQ $64, SI")
	g.op("ADDQ $64, R10")
	g.op("SUBQ $64, DX")
	g.op("JMP %s_64", lbl)
	g.label(lbl + "_32")
	g.op("TESTQ DX, DX")
	g.op("JZ %s_next", lbl)
	g.op("VMOVUPD (SI), Y0")
	g.op("%s Y0, (R10)", store)
	g.op("ADDQ $32, SI")
	g.op("ADDQ $32, R10")
	g.op("SUBQ $32, DX")
	g.op("JMP %s_32", lbl)
	g.label(lbl + "_next")
	g.op("ADDQ R9, DI")
	g.op("DECQ CX")
	g.op("JMP %s_block", lbl)
	g.label(lbl + "_done")
	g.op("VZEROUPPER")
	g.op("RET")
	g.ln("")
}

// emitGatherNT writes the run-major streaming store: `runs` destination runs
// dstStride bytes apart, each the concatenation of one blockBytes block from
// each of `units` sources unitBytes apart (run r reads block r of every
// unit), stored as whole 64-byte lines by VMOVNTPD. With scale set every
// element is multiplied on the way out by emitScale, so results, NaN
// payloads included, are the bits of fft1d.Scale. Register plan:
//
//	DI/SI run bases (dst, src)   R8 remaining runs   R13 dst cursor
//	BX unit base in src   CX remaining units   AX src cursor   DX bytes left
//	R9 units   R10 blockBytes   R11 unitBytes   R12 dstStride
//	Y14 [s,0,s,0]   Y15 [0,s,0,s]
func emitGatherNT(g *gen, name string, scale bool) {
	args := "dst, src unsafe.Pointer, runs, units, blockBytes, unitBytes, dstStride int"
	frame := 56
	if scale {
		args += ", scale float64"
		frame = 64
	}
	g.ln("// func %s(%s)", name, args)
	g.ln("TEXT ·%s(SB), NOSPLIT, $0-%d", name, frame)
	g.op("MOVQ dst+0(FP), DI")
	g.op("MOVQ src+8(FP), SI")
	g.op("MOVQ runs+16(FP), R8")
	g.op("MOVQ units+24(FP), R9")
	g.op("MOVQ blockBytes+32(FP), R10")
	g.op("MOVQ unitBytes+40(FP), R11")
	g.op("MOVQ dstStride+48(FP), R12")
	if scale {
		emitScaleConsts(g, "scale+56(FP)", "Y14", "Y15")
	}
	g.label(name + "_run")
	g.op("TESTQ R8, R8")
	g.op("JZ %s_done", name)
	g.op("MOVQ DI, R13")
	g.op("MOVQ SI, BX")
	g.op("MOVQ R9, CX")
	g.label(name + "_unit")
	g.op("MOVQ BX, AX")
	g.op("MOVQ R10, DX")
	g.label(name + "_line")
	g.op("VMOVUPD (AX), Y0")
	g.op("VMOVUPD 32(AX), Y1")
	if scale {
		emitScale(g, "Y0", "Y14", "Y15")
		emitScale(g, "Y1", "Y14", "Y15")
	}
	g.op("VMOVNTPD Y0, (R13)")
	g.op("VMOVNTPD Y1, 32(R13)")
	g.op("ADDQ $64, AX")
	g.op("ADDQ $64, R13")
	g.op("SUBQ $64, DX")
	g.op("JNZ %s_line", name)
	g.op("ADDQ R11, BX")
	g.op("DECQ CX")
	g.op("JNZ %s_unit", name)
	g.op("ADDQ R10, SI")
	g.op("ADDQ R12, DI")
	g.op("DECQ R8")
	g.op("JMP %s_run", name)
	g.label(name + "_done")
	g.op("VZEROUPPER")
	g.op("RET")
	g.ln("")
}

// emitStoreFence writes the one SFENCE a batch of streaming-store kernel
// calls ends with.
func emitStoreFence(g *gen) {
	g.ln("// func storeFence()")
	g.ln("//")
	g.ln("// Orders every streaming store this thread issued before any later")
	g.ln("// store, so the write-combining buffers are globally visible before the")
	g.ln("// caller signals that the destination is complete.")
	g.ln("TEXT ·storeFence(SB), NOSPLIT, $0-0")
	g.op("SFENCE")
	g.op("RET")
	g.ln("")
}

// emitFlushLines writes a cache-line flush loop over [p, p+n) with insn
// (CLFLUSHOPT or CLFLUSH), ending in the MFENCE that orders the flushes —
// CLFLUSHOPT is ordered only by fences — ahead of the caller's next load.
// The loop starts at the line holding p and ends at the one holding byte
// p+n-1, never the one past it; the Go wrapper guarantees n > 0.
func emitFlushLines(g *gen, name, insn string) {
	g.ln("// func %s(p unsafe.Pointer, n int)", name)
	g.ln("//")
	g.ln("// Writes back and evicts from every cache level each 64-byte line")
	g.ln("// holding part of [p, p+n) with %s, then fences so the evictions", insn)
	g.ln("// are complete before the caller's next access.")
	g.ln("TEXT ·%s(SB), NOSPLIT, $0-16", name)
	g.op("MOVQ p+0(FP), DI")
	g.op("MOVQ n+8(FP), CX")
	g.op("MOVQ DI, AX")
	g.op("ANDQ $63, AX")
	g.op("ADDQ AX, CX")
	g.op("ANDQ $-64, DI")
	g.label(name + "_line")
	g.op("%s (DI)", insn)
	g.op("ADDQ $64, DI")
	g.op("SUBQ $64, CX")
	g.op("JG %s_line", name)
	g.op("MFENCE")
	g.op("RET")
	g.ln("")
}

// emitCopyStream writes the load leg's streamed copy (internal/layout): four
// 64-byte vectors per iteration with the source prefetched 2 KiB ahead, which
// is what keeps a single thread's read stream ahead of the hardware
// prefetcher's page-boundary stalls when the destination is an L2-resident
// buffer half. The Go wrapper guarantees n is a positive multiple of 256;
// the prefetches past the end of the source are hints and cannot fault.
func emitCopyStream(g *gen) {
	g.ln("// func copyStream512(dst, src unsafe.Pointer, n int)")
	g.ln("TEXT ·copyStream512(SB), NOSPLIT, $0-24")
	g.op("MOVQ dst+0(FP), DI")
	g.op("MOVQ src+8(FP), SI")
	g.op("MOVQ n+16(FP), CX")
	g.label("cs512_loop")
	for k := 0; k < 4; k++ {
		g.op("PREFETCHT0 %d(SI)", 2048+64*k)
	}
	for k := 0; k < 4; k++ {
		g.op("VMOVDQU64 %d(SI), Z%d", 64*k, k)
	}
	for k := 0; k < 4; k++ {
		g.op("VMOVDQU64 Z%d, %d(DI)", k, 64*k)
	}
	g.op("ADDQ $256, SI")
	g.op("ADDQ $256, DI")
	g.op("SUBQ $256, CX")
	g.op("JNZ cs512_loop")
	g.op("VZEROUPPER")
	g.op("RET")
	g.ln("")
}

func main() {
	kernelsOut := flag.String("kernels", "internal/kernels/radix_avx2_amd64.s", "output path for the butterfly codelets")
	layoutOut := flag.String("layout", "internal/layout/scatter_avx2_amd64.s", "output path for the block scatters and gathers")
	flag.Parse()

	var k gen
	header(&k, "AVX2/FMA butterfly codelets for internal/kernels.")
	kernelConsts(&k, 32)
	emitInterKernel(&k, "radix4AVX2", 4, vec256, true)
	emitPairsKernel(&k, "radix4PairsAVX2", 4, vec256, true)
	emitInterKernel(&k, "radix8AVX2", 8, vec256, true)
	emitPairsKernel(&k, "radix8PairsAVX2", 8, vec256, true)
	emitInterKernel16(&k, "radix16AVX2", vec256, true)
	emitPairsKernel16(&k, "radix16PairsAVX2", vec256, true)
	emitFoldKernel(&k, "radix4FoldLegAVX2")
	emitFoldScatterKernel(&k, "radix4FoldNTAVX2", "VMOVNTPD", false)
	emitFoldScatterKernel(&k, "radix4FoldScatterAVX2", movOp, false)
	emitFoldScatterKernel(&k, "radix4FoldScaleNTAVX2", "VMOVNTPD", true)
	emitFoldScatterKernel(&k, "radix4FoldScatterScaleAVX2", movOp, true)
	for _, r := range []int{8, 16} {
		for _, scale := range []bool{false, true} {
			sfx := ""
			if scale {
				sfx = "Scale"
			}
			emitSinkKernel(&k, fmt.Sprintf("radix%dSink%sAVX2", r, sfx), r, vec256, scale)
			emitSinkPairs(&k, fmt.Sprintf("radix%dSinkPairs%sAVX2", r, sfx), r, scale)
		}
	}

	// The 512-bit tier of the radix-8 and fused radix-16 codelets lives in
	// its own file, beside the -kernels one, so the AVX2 file does not change
	// when this tier does. Each lane runs the AVX2 codelet's operation
	// sequence, so the two agree bit for bit.
	var z gen
	header(&z, "AVX-512F/DQ tier of the radix-8 and fused radix-16 codelets for internal/kernels.")
	kernelConsts(&z, 64)
	emitInterKernel(&z, "radix8AVX512", 8, vec512, false)
	emitPairsKernel(&z, "radix8PairsAVX512", 8, vec512, false)
	emitInterKernel16(&z, "radix16AVX512", vec512, false)
	emitPairsKernel16(&z, "radix16PairsAVX512", vec512, false)
	for _, r := range []int{8, 16} {
		emitSinkKernel(&z, fmt.Sprintf("radix%dSinkAVX512", r), r, vec512, false)
		emitSinkKernel(&z, fmt.Sprintf("radix%dSinkScaleAVX512", r), r, vec512, true)
	}

	var l gen
	header(&l, "AVX block scatters (non-temporal and cached), non-temporal gather and cache-line flush for internal/layout.")
	emitScatterNT(&l)
	emitScatterCached(&l)
	emitGatherNT(&l, "gatherNTBytes", false)
	emitGatherNT(&l, "gatherScaleNTBytes", true)
	emitStoreFence(&l)
	emitFlushLines(&l, "flushLinesOpt", "CLFLUSHOPT")
	emitFlushLines(&l, "flushLines", "CLFLUSH")

	var c gen
	header(&c, "AVX-512F streamed copy for internal/layout (the stage load leg).")
	emitCopyStream(&c)

	for _, out := range []struct {
		path string
		g    *gen
	}{
		{*kernelsOut, &k},
		{filepath.Join(filepath.Dir(*kernelsOut), "radix_avx512_amd64.s"), &z},
		{*layoutOut, &l},
		{filepath.Join(filepath.Dir(*layoutOut), "copy_avx512_amd64.s"), &c},
	} {
		if err := os.WriteFile(out.path, []byte(out.g.b.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", out.path)
	}
}
