package faults

import (
	"fmt"

	"netsamp/internal/state"
)

// The fault configuration is part of the daemon's checkpoint: a restored
// run must rebuild the *same* fault plan, because every fault draw is a
// pure function of (Seed, domain, interval, entity) and the deterministic
// recovery guarantee re-executes intervals against it. The encoding is
// versioned and bit-exact (floats as IEEE-754 bits).

// configVersion stamps the Config binary encoding. Version 3 dropped the
// rate-clamp fields; a version-1 or -2 payload may carry a fault this
// plan can no longer draw, so it is rejected rather than half-decoded.
const configVersion = 3

// MarshalBinary encodes the configuration deterministically.
func (c Config) MarshalBinary() ([]byte, error) {
	var e state.Encoder
	e.U16(configVersion)
	e.U64(c.Seed)
	e.F64(c.MonitorCrash)
	e.F64(c.MeanOutage)
	e.I64(int64(c.MaxOutage))
	e.F64(c.DatagramLoss)
	e.F64(c.DatagramDup)
	e.F64(c.DatagramReorder)
	e.F64(c.SolverOverrun)
	e.F64(c.DriftVol)
	e.F64(c.DriftStep)
	e.F64(c.DriftStepMax)
	return e.Data(), nil
}

// UnmarshalBinary decodes a configuration produced by MarshalBinary,
// rejecting malformed payloads and every version but the current one
// with an error wrapping state.ErrCodec. The decoded values are exactly
// the encoded ones; re-validate with NewPlan before use.
func (c *Config) UnmarshalBinary(b []byte) error {
	d := state.NewDecoder(b)
	v := d.U16()
	if d.Err() == nil && v != configVersion {
		return fmt.Errorf("faults: unknown config version %d: %w", v, state.ErrCodec)
	}
	c.Seed = d.U64()
	c.MonitorCrash = d.F64()
	c.MeanOutage = d.F64()
	c.MaxOutage = int(d.I64())
	c.DatagramLoss = d.F64()
	c.DatagramDup = d.F64()
	c.DatagramReorder = d.F64()
	c.SolverOverrun = d.F64()
	c.DriftVol = d.F64()
	c.DriftStep = d.F64()
	c.DriftStepMax = d.F64()
	return d.Finish()
}
