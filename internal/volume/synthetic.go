package volume

import (
	"math"

	"repro/internal/rng"
)

// RMSteps is the number of time steps in the synthetic Richtmyer–Meshkov
// stand-in, matching the 270 steps of the LLNL dataset the paper uses.
const RMSteps = 270

// RichtmyerMeshkov generates one time step of the synthetic stand-in for the
// LLNL Richtmyer–Meshkov instability dataset (one-byte scalars).
//
// The model follows the physics sketched in the paper's introduction: two
// gases separated by an interface are perturbed by a superposition of long-
// and short-wavelength disturbances; bubbles and spikes grow, merge and break
// up into a turbulent mixing layer as time advances. Concretely the scalar is
// a smoothed two-phase density profile around a perturbed interface
// h(x,y,t), with fBm "turbulence" whose amplitude and the mixing-layer width
// grow with the time step. Away from the mixing layer the gases are exactly
// uniform, so — as with the real dataset — roughly half of all metacells are
// constant and are discarded by preprocessing.
//
// step must be in [0, RMSteps). The same (dimensions, step, seed) always
// yields the identical grid.
func RichtmyerMeshkov(nx, ny, nz, step int, seed uint64) *Grid {
	if step < 0 || step >= RMSteps {
		panic("volume: RM step out of range")
	}
	g := New(nx, ny, nz, U8)
	tau := float32(step) / float32(RMSteps) // normalized time in [0,1)

	// Disturbance amplitudes, interface sharpness and mixed-region depth
	// grow with time; coefficients are tuned so that — like the real
	// dataset — roughly half of all metacells are constant at late steps.
	aLong := 0.02 + 0.14*tau
	aShort := 0.008 + 0.06*tau
	width := 0.01 + 0.03*tau   // tanh ramp width of the two interfaces
	depth := 0.05 + 0.24*tau   // thickness of the mixed-fluid region
	turbAmp := 0.04 + 0.24*tau // mid-value turbulence inside the layer
	bubbleThr := 0.62 - 0.05*tau
	const dropThr = 0.7 // rarer than bubbles: heavy spikes break up late

	// Deterministic per-seed phases for the disturbance modes.
	r := rng.New(seed ^ 0x524d /* "RM" */)
	p1 := float32(r.Float64() * 2 * math.Pi)
	p2 := float32(r.Float64() * 2 * math.Pi)
	p3 := float32(r.Float64() * 2 * math.Pi)
	p4 := float32(r.Float64() * 2 * math.Pi)
	turbSeed := r.Uint64()
	bubbleSeed := r.Uint64()
	dropSeed := r.Uint64()

	// Morphology: below the perturbed interface h sits a turbulent
	// *mixed-fluid* region of intermediate values, pocketed with bubbles of
	// entrained light gas (many) and droplets of unbroken heavy gas (fewer);
	// pure heavy gas lies below the mixed region, pure light gas above.
	// Bubble boundaries span only light-to-mid values and droplet boundaries
	// mid-to-heavy, so — as in the real dataset — the isosurface size varies
	// several-fold across the isovalue sweep instead of every isovalue
	// cutting the same single sheet. Pure-phase scalar values are chosen so
	// the paper's sweep 10..210 lies strictly inside the range.
	const loGas, hiGas = 5, 245
	g.Fill(func(x, y, z int) float32 {
		u := float32(x) / float32(nx)
		v := float32(y) / float32(ny)
		w := float32(z) / float32(nz)

		// Perturbed interface height: long + short wavelength modes.
		h := float32(0.55)
		h += aLong * sin32(2*math.Pi*2*u+p1) * cos32(2*math.Pi*2*v+p2)
		h += aShort * sin32(2*math.Pi*9*u+p3) * sin32(2*math.Pi*7*v+p4)

		d := w - h // signed height above the upper interface
		if d > 3*width {
			return loGas // uniform light gas well above the layer
		}
		if d < -(depth + 3*width) {
			return hiGas // uniform heavy gas well below the layer
		}

		// Mixed-fluid value with mild turbulence.
		mixed := 0.45 + 2*turbAmp*(fbm(u*14, v*14, w*40, 4, turbSeed)-0.5)

		// Two-ramp vertical profile: light → mixed → heavy.
		top := 0.5 * (1 - tanh32(d/width))         // 0 above h, 1 below
		bot := 0.5 * (1 - tanh32((d+depth)/width)) // 0 above h−depth, 1 below
		phase := top * (mixed + (1-mixed)*bot)

		// Inside the mixed region, carve light-gas bubbles and heavy-gas
		// droplets with large-scale blob fields.
		if interior := top * (1 - bot); interior > 0.2 {
			if b := fbm(u*6, v*6, w*8, 3, bubbleSeed); b > bubbleThr {
				phase *= 1 - smoothstep((b-bubbleThr)/0.08) // toward light
			}
			if dr := fbm(u*6, v*6, w*8, 3, dropSeed); dr > dropThr {
				s := smoothstep((dr - dropThr) / 0.08)
				phase += (1 - phase) * s // toward heavy
			}
		}
		if phase < 0 {
			phase = 0
		}
		if phase > 1 {
			phase = 1
		}
		return loGas + (hiGas-loGas)*phase
	})
	return g
}

// smoothstep is the cubic Hermite step clamped to [0,1].
func smoothstep(t float32) float32 {
	if t <= 0 {
		return 0
	}
	if t >= 1 {
		return 1
	}
	return t * t * (3 - 2*t)
}

// TimeVaryingRM returns a generator function mapping a time step to its RM
// grid, for driving the §7.2 time-varying experiments.
func TimeVaryingRM(nx, ny, nz int, seed uint64) func(step int) *Grid {
	return func(step int) *Grid { return RichtmyerMeshkov(nx, ny, nz, step, seed) }
}

// Sphere generates an n³ one-byte grid whose isosurfaces are concentric
// spheres: value = 255 at the center falling linearly to 0 at the corner
// radius. Useful for tests with analytically known surface topology.
func Sphere(n int) *Grid {
	g := New(n, n, n, U8)
	c := float32(n-1) / 2
	rmax := sqrt32(3) * c
	g.Fill(func(x, y, z int) float32 {
		dx, dy, dz := float32(x)-c, float32(y)-c, float32(z)-c
		r := sqrt32(dx*dx + dy*dy + dz*dz)
		return 255 * (1 - r/rmax)
	})
	return g
}

// Torus generates an n³ one-byte grid whose mid-range isosurfaces are tori
// (genus-1), for topology tests.
func Torus(n int) *Grid {
	g := New(n, n, n, U8)
	c := float32(n-1) / 2
	major := 0.55 * c
	g.Fill(func(x, y, z int) float32 {
		dx, dy, dz := float32(x)-c, float32(y)-c, float32(z)-c
		q := sqrt32(dx*dx+dy*dy) - major
		d := sqrt32(q*q + dz*dz) // distance to the torus core circle
		v := 255 * (1 - d/c)
		if v < 0 {
			v = 0
		}
		return v
	})
	return g
}

// Constant generates a grid with every sample equal to v; all its metacells
// are degenerate and should be dropped by preprocessing.
func Constant(nx, ny, nz int, f Format, v float32) *Grid {
	g := New(nx, ny, nz, f)
	g.Fill(func(x, y, z int) float32 { return v })
	return g
}

// The functions below synthesize stand-ins for the datasets of the paper's
// Table 1. Only the index-theoretic statistics matter for that table — grid
// size, scalar width, and the regime of distinct endpoint values n relative
// to the interval count N — so each stand-in reproduces those regimes rather
// than the actual pictures (see DESIGN.md §2).

// BunnyLike synthesizes a CT-scan-like one-byte field: a blobby solid with a
// hollow interior and noisy soft tissue, yielding a small n (≤256).
func BunnyLike(n int, seed uint64) *Grid {
	g := New(n, n, n, U8)
	c := float32(n-1) / 2
	g.Fill(func(x, y, z int) float32 {
		dx, dy, dz := (float32(x)-c)/c, (float32(y)-c)/c, (float32(z)-c)/c
		// Three overlapping blobs approximate a scanned object.
		b1 := blob(dx, dy+0.1, dz, 0.55)
		b2 := blob(dx-0.3, dy-0.35, dz, 0.3)
		b3 := blob(dx+0.35, dy-0.3, dz+0.1, 0.25)
		v := b1 + b2 + b3
		v += 0.15 * fbm(float32(x)*0.1, float32(y)*0.1, float32(z)*0.1, 3, seed)
		return clamp(v*220, 0, 255)
	})
	return g
}

// MRBrainLike synthesizes an MR-like two-byte field: layered shells with
// speckle noise, with n in the low thousands.
func MRBrainLike(n int, seed uint64) *Grid {
	g := New(n, n, n, U16)
	c := float32(n-1) / 2
	g.Fill(func(x, y, z int) float32 {
		dx, dy, dz := (float32(x)-c)/c, (float32(y)-c)/c*1.2, (float32(z)-c)/c
		r := sqrt32(dx*dx + dy*dy + dz*dz)
		shell := 0.5 + 0.5*sin32(r*18)
		base := (1 - r) * shell
		if base < 0 {
			base = 0
		}
		sp := fbm(float32(x)*0.25, float32(y)*0.25, float32(z)*0.25, 2, seed)
		return clamp((base*0.8+sp*0.2)*3000, 0, 65535)
	})
	return g
}

// CTHeadLike synthesizes a CT-like two-byte field: bone shell around soft
// interior, air outside.
func CTHeadLike(n int, seed uint64) *Grid {
	g := New(n, n, n, U16)
	c := float32(n-1) / 2
	g.Fill(func(x, y, z int) float32 {
		dx, dy, dz := (float32(x)-c)/c, (float32(y)-c)/c, (float32(z)-c)/c*1.1
		r := sqrt32(dx*dx + dy*dy + dz*dz)
		switch {
		case r > 0.85:
			return 0 // air
		case r > 0.72:
			return clamp(2800+400*fbm(float32(x)*0.3, float32(y)*0.3, float32(z)*0.3, 2, seed), 0, 65535) // bone
		default:
			return clamp(900+300*fbm(float32(x)*0.15, float32(y)*0.15, float32(z)*0.15, 3, seed^1), 0, 65535) // tissue
		}
	})
	return g
}

// PressureLike synthesizes a float32 simulation field in which almost every
// sample value is distinct (the paper's N ≈ n regime for the Pressure set).
func PressureLike(n int, seed uint64) *Grid {
	g := New(n, n, n, F32)
	g.Fill(func(x, y, z int) float32 {
		u, v, w := float32(x)/float32(n), float32(y)/float32(n), float32(z)/float32(n)
		return 101325*(1+0.1*sin32(6*u)*cos32(5*v)) +
			5000*fbm(u*12, v*12, w*12, 5, seed)
	})
	return g
}

// VelocityLike synthesizes a float32 velocity-magnitude field, also with
// N ≈ n.
func VelocityLike(n int, seed uint64) *Grid {
	g := New(n, n, n, F32)
	g.Fill(func(x, y, z int) float32 {
		u, v, w := float32(x)/float32(n), float32(y)/float32(n), float32(z)/float32(n)
		vx := sin32(4*v) + 0.5*fbm(u*10, v*10, w*10, 4, seed)
		vy := cos32(4*w) + 0.5*fbm(u*10+37, v*10, w*10, 4, seed^2)
		vz := sin32(4*u) + 0.5*fbm(u*10, v*10+37, w*10, 4, seed^3)
		return sqrt32(vx*vx + vy*vy + vz*vz)
	})
	return g
}

func blob(dx, dy, dz, r float32) float32 {
	d2 := dx*dx + dy*dy + dz*dz
	return exp32(-d2 / (r * r))
}

func sin32(v float32) float32  { return float32(math.Sin(float64(v))) }
func cos32(v float32) float32  { return float32(math.Cos(float64(v))) }
func tanh32(v float32) float32 { return float32(math.Tanh(float64(v))) }
func exp32(v float32) float32  { return float32(math.Exp(float64(v))) }
func sqrt32(v float32) float32 { return float32(math.Sqrt(float64(v))) }
