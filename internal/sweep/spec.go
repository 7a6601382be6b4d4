package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	proto "card/internal/card"
	"card/internal/scheme"
)

// axisDef describes one sweepable configuration field: how to apply a
// value to a CellConfig, how to validate it, and how to render it.
type axisDef struct {
	canon  string
	check  func(v float64) error
	apply  func(c *CellConfig, v float64)
	render func(v float64) string
}

// intCheck admits the integers in [min, MaxInt32]. The bounds are
// compared while v is still a float64: converted first, 1e300 would wrap
// to a negative int and be refused under that name. A tighter bound
// (R <= 255) is card.Config's to name.
func intCheck(name string, min float64) func(float64) error {
	return func(v float64) error {
		if v != math.Trunc(v) {
			return fmt.Errorf("sweep: axis %s takes integers, got %g", name, v)
		}
		if v < min {
			return fmt.Errorf("sweep: axis %s value %g below minimum %g", name, v, min)
		}
		if v > math.MaxInt32 {
			return fmt.Errorf("sweep: axis %s value %g above maximum %d", name, v, math.MaxInt32)
		}
		return nil
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func renderNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// axisDefs lists the sweepable axes. "R" and "r" are distinct and
// case-sensitive (the paper's neighborhood radius vs max contact
// distance); every other name matches case-insensitively.
var axisDefs = []axisDef{
	{
		canon: "R",
		check: intCheck("R", 1),
		apply: func(c *CellConfig, v float64) { c.Proto.R = int(v) },
	},
	{
		canon: "r",
		check: intCheck("r", 2),
		apply: func(c *CellConfig, v float64) { c.Proto.MaxContactDist = int(v) },
	},
	{
		canon: "NoC",
		check: intCheck("NoC", 0),
		apply: func(c *CellConfig, v float64) { c.Proto.NoC = int(v) },
	},
	{
		canon: "D",
		check: intCheck("D", 1),
		apply: func(c *CellConfig, v float64) { c.Proto.Depth = int(v) },
	},
	{
		canon: "Method",
		check: func(v float64) error {
			if v != math.Trunc(v) || v < float64(proto.EM) || v > float64(proto.PM2) {
				return fmt.Errorf("sweep: axis Method takes EM, PM1 or PM2, got %g", v)
			}
			return nil
		},
		apply:  func(c *CellConfig, v float64) { c.Proto.Method = proto.Method(v) },
		render: func(v float64) string { return proto.Method(v).String() },
	},
	{
		canon: "VP",
		check: func(v float64) error {
			if v <= 0 {
				return fmt.Errorf("sweep: axis VP needs a positive period, got %g", v)
			}
			return nil
		},
		apply: func(c *CellConfig, v float64) { c.Proto.ValidatePeriod = v },
	},
	{
		canon: "Loss",
		check: func(v float64) error {
			if v < 0 || v >= 1 {
				return fmt.Errorf("sweep: axis Loss takes a probability in [0, 1), got %g", v)
			}
			return nil
		},
		apply: func(c *CellConfig, v float64) { c.Loss = &v },
	},
	{
		canon: "RangeSpread",
		check: func(v float64) error {
			if v < 0 || v >= 1 {
				return fmt.Errorf("sweep: axis RangeSpread takes a fraction in [0, 1), got %g", v)
			}
			return nil
		},
		apply: func(c *CellConfig, v float64) { c.RangeSpread = &v },
	},
	{
		canon: "Scheme",
		check: func(v float64) error {
			if v != math.Trunc(v) || v < 0 || v >= float64(len(scheme.Names())) {
				return fmt.Errorf("sweep: axis Scheme takes one of %v, got %g", scheme.Names(), v)
			}
			return nil
		},
		// Scheme values are indices into the sorted scheme registry
		// (scheme.Names()) as of parse time; ParseSpec accepts the names.
		apply:  func(c *CellConfig, v float64) { c.Scheme = scheme.Names()[int(v)] },
		render: func(v float64) string { return scheme.Names()[int(v)] },
	},
}

// axisAliases maps lowercase alternate spellings to canonical names.
// "R"/"r" are intentionally absent: their case is meaningful.
var axisAliases = map[string]string{
	"noc":            "NoC",
	"d":              "D",
	"depth":          "D",
	"method":         "Method",
	"vp":             "VP",
	"validateperiod": "VP",
	"scheme":         "Scheme",
	"loss":           "Loss",
	"rangespread":    "RangeSpread",
	"spread":         "RangeSpread",
}

// canonAxis resolves an axis name to its definition.
func canonAxis(name string) (axisDef, error) {
	canon := name
	if name != "R" && name != "r" {
		if c, ok := axisAliases[strings.ToLower(name)]; ok {
			canon = c
		}
	}
	for _, d := range axisDefs {
		if d.canon == canon {
			if d.render == nil {
				d.render = renderNum
			}
			// Every axis value — parsed, range-enumerated or handed to
			// Grid.Validate — passes d.check, so this is the one place
			// NaN/±Inf are refused: NaN compares false against every bound
			// below, and a runner then silently ignores the axis.
			inRange := d.check
			d.check = func(v float64) error {
				if !finite(v) {
					return fmt.Errorf("sweep: axis %s takes finite values, got %g", canon, v)
				}
				return inRange(v)
			}
			return d, nil
		}
	}
	names := make([]string, len(axisDefs))
	for i, d := range axisDefs {
		names[i] = d.canon
	}
	return axisDef{}, fmt.Errorf("sweep: unknown axis %q (have %v; R and r are case-sensitive)", name, names)
}

// ParseSpec parses a grid specification: semicolon-separated axes, each
// "name=values" where values are either an inclusive range "a..b" (step
// 1) or "a..b..step", or a comma list "v1,v2,v3". The Method axis accepts
// the protocol names EM, PM1, PM2; the Scheme axis accepts registered
// discovery-scheme names (card, flood, ring, bordercast, rendezvous).
// Examples:
//
//	NoC=1..10;r=6..20
//	r=8..16..2;Method=EM,PM2
//	R=2,3;NoC=2..8..2;D=1..3
//	Scheme=card,rendezvous;NoC=1..4
//	Loss=0,0.05,0.1;RangeSpread=0,0.25,0.5
//
// Axis names R and r are case-sensitive (neighborhood radius vs max
// contact distance); everything else is case-insensitive.
func ParseSpec(spec string) ([]Axis, error) {
	var axes []Axis
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, vals, found := strings.Cut(part, "=")
		if !found {
			return nil, fmt.Errorf("sweep: bad axis %q: want name=values", part)
		}
		name = strings.TrimSpace(name)
		d, err := canonAxis(name)
		if err != nil {
			return nil, err
		}
		values, err := parseValues(d, strings.TrimSpace(vals))
		if err != nil {
			return nil, err
		}
		axes = append(axes, Axis{Name: d.canon, Values: values})
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("sweep: empty grid spec %q", spec)
	}
	return axes, nil
}

// parseValues parses the value part of one axis: a range or a comma list.
func parseValues(d axisDef, s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("sweep: axis %s has no values", d.canon)
	}
	if strings.Contains(s, "..") {
		return parseRange(d, s)
	}
	var out []float64
	for _, item := range strings.Split(s, ",") {
		v, err := parseValue(d, strings.TrimSpace(item))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseRange parses "a..b" or "a..b..step" inclusively.
func parseRange(d axisDef, s string) ([]float64, error) {
	parts := strings.Split(s, "..")
	if len(parts) != 2 && len(parts) != 3 {
		return nil, fmt.Errorf("sweep: axis %s: bad range %q (want a..b or a..b..step)", d.canon, s)
	}
	lo, err := parseValue(d, strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, err
	}
	hi, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil || !finite(hi) {
		return nil, fmt.Errorf("sweep: axis %s: bad range bound %q", d.canon, parts[1])
	}
	step := 1.0
	if len(parts) == 3 {
		step, err = strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil || !(step > 0) || !finite(step) { // !(x > 0) also catches NaN
			return nil, fmt.Errorf("sweep: axis %s: bad range step %q (want a finite step > 0)", d.canon, parts[2])
		}
	}
	if hi < lo {
		return nil, fmt.Errorf("sweep: axis %s: descending range %q", d.canon, s)
	}
	var out []float64
	// Integer-step the enumeration so float accumulation cannot skip the
	// upper bound (a 1e-9 slack admits bounds that land on a step).
	for k := 0; ; k++ {
		v := lo + float64(k)*step
		if v > hi+1e-9 {
			break
		}
		if err := d.check(v); err != nil {
			return nil, err
		}
		out = append(out, v)
		if k > maxCells {
			return nil, fmt.Errorf("sweep: axis %s: range %q spans over %d values", d.canon, s, maxCells)
		}
	}
	return out, nil
}

// parseValue parses one scalar, accepting method names on the Method axis
// and registered scheme names on the Scheme axis.
func parseValue(d axisDef, s string) (float64, error) {
	if d.canon == "Method" {
		switch strings.ToUpper(s) {
		case "EM":
			return float64(proto.EM), nil
		case "PM1":
			return float64(proto.PM1), nil
		case "PM2":
			return float64(proto.PM2), nil
		}
	}
	if d.canon == "Scheme" {
		for i, name := range scheme.Names() {
			if strings.EqualFold(s, name) {
				return float64(i), nil
			}
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("sweep: axis %s: bad value %q", d.canon, s)
	}
	if err := d.check(v); err != nil {
		return 0, err
	}
	return v, nil
}
