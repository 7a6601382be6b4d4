package mobility

// DefaultRWP matches the era's common NS-2 setup: uniform speed in
// [1, 19] m/s, no pause.
func DefaultRWP() RWPConfig { return RWPConfig{MinSpeed: 1, MaxSpeed: 19} }

// DefaultGM is the common Gauss–Markov tuning: 10 m/s mean speed with
// moderate memory (α = 0.75).
func DefaultGM() GMConfig { return GMConfig{MeanSpeed: 10, Alpha: 0.75, SpeedSigma: 2} }
