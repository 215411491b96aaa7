// Package workload synthesizes multiprocessor reference streams that
// stand in for the paper's trace inputs: the SPLASH programs MP3D,
// WATER and CHOLESKY (8/16/32 processors, CacheMire traces) and the
// MIT 64-processor FORTRAN traces FFT, WEATHER and SIMPLE.
//
// The original tapes are not available, so each benchmark is described
// by a Profile carrying the Table 2 statistics (reference mix, write
// fractions, miss rates) plus a sharing-pattern knob (the migratory
// fraction) chosen so that the protocol-level event mixes — clean
// vs dirty misses, invalidations finding sharers, 1- vs 2-traversal
// transactions — land near the paper's Table 1 and Figure 5. The
// generator then produces per-CPU streams whose statistics converge to
// the profile; everything downstream (protocols, interconnects,
// analytical models) consumes only those statistics, which is why the
// substitution preserves the paper's conclusions (see DESIGN.md).
package workload

import "fmt"

// Profile describes one benchmark at one system size.
type Profile struct {
	// Name is the benchmark name, e.g. "MP3D".
	Name string
	// CPUs is the processor count the profile was measured at.
	CPUs int

	// InstrPerData is the ratio of instruction fetches to data
	// references.
	InstrPerData float64
	// PrivateFrac is the fraction of data references that touch
	// private data.
	PrivateFrac float64
	// PrivateWriteFrac is the write fraction among private references.
	PrivateWriteFrac float64
	// SharedWriteFrac is the write fraction among shared references.
	SharedWriteFrac float64

	// TotalMissRate and SharedMissRate are the Table 2 targets (128 KB
	// direct-mapped caches, 16-byte blocks).
	TotalMissRate  float64
	SharedMissRate float64

	// MigratoryFrac is the fraction of shared references directed at
	// migratory (read-modify-write, passed-around) blocks; the rest go
	// to a large read-mostly pool. This is the knob that sets the
	// dirty-miss and multi-traversal shares (Table 1, Figure 5).
	MigratoryFrac float64

	// PaperDataRefsM / PaperInstrRefsM are the Table 2 trace sizes in
	// millions of references, kept for reporting.
	PaperDataRefsM  float64
	PaperInstrRefsM float64
}

// PrivateMissRate returns the miss rate of private references implied
// by the Table 2 totals: total misses minus shared misses, over
// private references.
func (p Profile) PrivateMissRate() float64 {
	priv := p.PrivateFrac
	shared := 1 - priv
	r := (p.TotalMissRate - p.SharedMissRate*shared) / priv
	if r < 0 {
		return 0
	}
	return r
}

// String identifies the profile as "NAME/CPUS".
func (p Profile) String() string { return fmt.Sprintf("%s/%d", p.Name, p.CPUs) }

// mk builds a profile from the raw Table 2 row: data and instruction
// reference counts (millions), private and shared reference counts
// (millions) with their write fractions, and the two miss rates.
func mk(name string, cpus int, dataM, instrM, privM, privW, shM, shW, totMR, shMR, migratory float64) Profile {
	return Profile{
		Name:             name,
		CPUs:             cpus,
		InstrPerData:     instrM / dataM,
		PrivateFrac:      privM / (privM + shM),
		PrivateWriteFrac: privW,
		SharedWriteFrac:  shW,
		TotalMissRate:    totMR,
		SharedMissRate:   shMR,
		MigratoryFrac:    migratory,
		PaperDataRefsM:   dataM,
		PaperInstrRefsM:  instrM,
	}
}

// profiles is Table 2 transcribed, one row per benchmark × size, plus
// the migratory-fraction calibration. Migratory fractions are chosen so
// the directory protocol's miss mix approaches Table 1 / Figure 5:
// MP3D and FFT show substantial read-write sharing (large 1-cycle-dirty
// + 2-cycle shares), CHOLESKY/WEATHER/SIMPLE little, WATER in between.
var profiles = []Profile{
	mk("MP3D", 8, 3.76, 7.51, 2.48, 0.22, 1.27, 0.33, 0.0329, 0.0944, 0.30),
	mk("MP3D", 16, 3.94, 8.23, 2.50, 0.22, 1.43, 0.30, 0.0454, 0.1217, 0.28),
	mk("MP3D", 32, 4.64, 11.16, 2.51, 0.22, 2.08, 0.21, 0.1655, 0.3574, 0.26),
	mk("WATER", 8, 11.05, 25.89, 9.54, 0.18, 1.50, 0.07, 0.0021, 0.0138, 0.38),
	mk("WATER", 16, 11.36, 27.15, 9.55, 0.18, 1.81, 0.06, 0.0032, 0.0182, 0.36),
	mk("WATER", 32, 11.60, 28.12, 9.56, 0.18, 2.03, 0.06, 0.0073, 0.0382, 0.34),
	mk("CHOLESKY", 8, 6.97, 15.00, 5.29, 0.21, 1.62, 0.14, 0.0288, 0.1061, 0.17),
	mk("CHOLESKY", 16, 8.91, 21.26, 6.27, 0.20, 2.55, 0.09, 0.0612, 0.1896, 0.15),
	mk("CHOLESKY", 32, 13.75, 37.84, 8.21, 0.18, 5.33, 0.05, 0.1947, 0.4671, 0.10),
	mk("FFT", 64, 4.31, 3.12, 3.28, 0.27, 1.03, 0.50, 0.0685, 0.2612, 0.42),
	mk("WEATHER", 64, 15.63, 13.64, 13.11, 0.16, 2.52, 0.19, 0.0525, 0.3078, 0.10),
	mk("SIMPLE", 64, 14.02, 11.59, 9.94, 0.35, 4.07, 0.11, 0.1597, 0.5416, 0.10),
}

// Profiles returns all benchmark profiles (Table 2, every row).
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// SPLASHNames lists the SPLASH benchmarks evaluated at 8/16/32 CPUs.
func SPLASHNames() []string { return []string{"MP3D", "WATER", "CHOLESKY"} }

// MITNames lists the 64-CPU benchmarks.
func MITNames() []string { return []string{"FFT", "WEATHER", "SIMPLE"} }

// ProfileFor returns the Table 2 profile for a benchmark at a system
// size.
func ProfileFor(name string, cpus int) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name && p.CPUs == cpus {
			return p, true
		}
	}
	return Profile{}, false
}

// MustProfile is ProfileFor that panics on unknown profiles; for use in
// experiment drivers with hard-coded names.
func MustProfile(name string, cpus int) Profile {
	p, ok := ProfileFor(name, cpus)
	if !ok {
		panic(fmt.Sprintf("workload: no profile %s/%d", name, cpus))
	}
	return p
}
