package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ddosim/internal/sim"
)

// ParseSpec builds a Config from a compact CLI spec: semicolon-
// separated clauses of the form kind:key=val,key=val. Durations use Go
// syntax (5s, 250ms); rates and factors are floats.
//
//	flap:period=60s,down=5s[,mode=periodic]
//	loss:rate=0.9,burst=5s,gap=30s
//	degrade:period=120s,down=30s,factor=0.25[,qfactor=0.5]
//	crash:period=90s,restart=10s
//	cnc:period=150s,down=20s[,crash=300s][,takedown=30s]
//	sink:period=200s,down=15s
//	intensity=0.6            (the canonical AtIntensity scenario)
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if val, ok := strings.CutPrefix(clause, "intensity="); ok {
			x, err := strconv.ParseFloat(val, 64)
			if err != nil || !inUnit(x) {
				return cfg, fmt.Errorf("faults: bad intensity %q (want [0,1])", val)
			}
			cfg = merge(cfg, AtIntensity(x))
			continue
		}
		kind, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return cfg, fmt.Errorf("faults: clause %q is not kind:key=val,...", clause)
		}
		kv, keys, err := parsePairs(rest)
		if err != nil {
			return cfg, fmt.Errorf("faults: clause %q: %w", clause, err)
		}
		if err := applyClause(&cfg, kind, kv, keys); err != nil {
			return cfg, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// parsePairs splits key=val,key=val into a map and the keys in clause
// order.
func parsePairs(s string) (map[string]string, []string, error) {
	kv := make(map[string]string)
	var keys []string
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || k == "" || v == "" {
			return nil, nil, fmt.Errorf("bad key=val pair %q", pair)
		}
		kv[k] = v
		keys = append(keys, k)
	}
	return kv, keys, nil
}

// applyClause sets cfg's fields from one clause's pairs, deleting each
// key it consumes from kv. A key left over is unknown; the error names
// the first in clause order (keys).
func applyClause(cfg *Config, kind string, kv map[string]string, keys []string) error {
	dur := func(key string, dst *sim.Time) error {
		v, ok := kv[key]
		if !ok {
			return nil
		}
		delete(kv, key)
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return fmt.Errorf("faults: %s:%s=%q is not a duration", kind, key, v)
		}
		*dst = sim.FromDuration(d)
		return nil
	}
	num := func(key string, dst *float64) error {
		v, ok := kv[key]
		if !ok {
			return nil
		}
		delete(kv, key)
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("faults: %s:%s=%q is not a number", kind, key, v)
		}
		*dst = f
		return nil
	}
	var err error
	switch kind {
	case "flap":
		if mode, ok := kv["mode"]; ok {
			cfg.FlapMode = mode
			delete(kv, "mode")
		}
		err = firstErr(dur("period", &cfg.FlapPeriod), dur("down", &cfg.FlapDown))
	case "loss":
		err = firstErr(num("rate", &cfg.BurstLoss), dur("burst", &cfg.BurstMean), dur("gap", &cfg.BurstGap))
	case "degrade":
		err = firstErr(dur("period", &cfg.DegradePeriod), dur("down", &cfg.DegradeDown),
			num("factor", &cfg.DegradeFactor), num("qfactor", &cfg.DegradeQueueFactor))
	case "crash":
		err = firstErr(dur("period", &cfg.CrashPeriod), dur("restart", &cfg.RestartDelay))
	case "cnc":
		err = firstErr(dur("period", &cfg.CNCOutagePeriod), dur("down", &cfg.CNCOutageDown),
			dur("crash", &cfg.CNCCrashPeriod), dur("takedown", &cfg.CNCTakedownAfterOrder))
	case "sink":
		err = firstErr(dur("period", &cfg.SinkOutagePeriod), dur("down", &cfg.SinkOutageDown))
	default:
		return fmt.Errorf("faults: unknown fault kind %q (flap|loss|degrade|crash|cnc|sink)", kind)
	}
	if err != nil {
		return err
	}
	for _, k := range keys {
		if _, ok := kv[k]; ok {
			return fmt.Errorf("faults: %s: unknown key %q", kind, k)
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// merge overlays non-zero fields of b onto a (intensity clauses compose
// with explicit ones, explicit winning when both set a field).
func merge(a, b Config) Config {
	if a.FlapPeriod == 0 {
		a.FlapPeriod, a.FlapDown, a.FlapMode = b.FlapPeriod, b.FlapDown, b.FlapMode
	}
	if a.BurstLoss == 0 {
		a.BurstLoss, a.BurstMean, a.BurstGap = b.BurstLoss, b.BurstMean, b.BurstGap
	}
	if a.DegradePeriod == 0 {
		a.DegradePeriod, a.DegradeDown = b.DegradePeriod, b.DegradeDown
		a.DegradeFactor, a.DegradeQueueFactor = b.DegradeFactor, b.DegradeQueueFactor
	}
	if a.CrashPeriod == 0 {
		a.CrashPeriod, a.RestartDelay = b.CrashPeriod, b.RestartDelay
	}
	if a.CNCOutagePeriod == 0 {
		a.CNCOutagePeriod, a.CNCOutageDown = b.CNCOutagePeriod, b.CNCOutageDown
	}
	if a.CNCCrashPeriod == 0 {
		a.CNCCrashPeriod = b.CNCCrashPeriod
	}
	if a.CNCTakedownAfterOrder == 0 {
		a.CNCTakedownAfterOrder = b.CNCTakedownAfterOrder
	}
	if a.SinkOutagePeriod == 0 {
		a.SinkOutagePeriod, a.SinkOutageDown = b.SinkOutagePeriod, b.SinkOutageDown
	}
	return a
}

// AtIntensity builds the canonical combined scenario the resilience
// experiment sweeps, scaled by x in [0,1]: higher intensity means more
// frequent flaps, crashes, and C&C outages, and harsher loss bursts
// and degradation windows. x = 0 disables everything. Sink outages are
// deliberately excluded — they corrupt the D_received measurement
// itself rather than stressing the botnet, so they stay an explicit
// opt-in knob.
func AtIntensity(x float64) Config {
	if x <= 0 {
		return Config{}
	}
	if x > 1 {
		x = 1
	}
	secs := func(f float64) sim.Time { return sim.Time(f * float64(sim.Second)) }
	return Config{
		FlapPeriod: secs(60 + (1-x)*240),
		FlapDown:   secs(2 + 8*x),

		BurstLoss: x,
		BurstMean: secs(5 + 10*x),
		BurstGap:  45 * sim.Second,

		DegradePeriod: secs(90 + (1-x)*300),
		DegradeDown:   10 * sim.Second,
		DegradeFactor: 1 - 0.75*x,

		CrashPeriod:  secs(120 + (1-x)*480),
		RestartDelay: 5 * sim.Second,

		CNCOutagePeriod: secs(180 + (1-x)*600),
		CNCOutageDown:   secs(5 + 15*x),
	}
}
