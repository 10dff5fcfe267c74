// Functions only this package's tests call; nothing in the program does
// (the root package's exported-surface test keeps them out of the API).

package experiments

// Paper returns the default paper-scale configuration.
func Paper() Config { return Config{Scale: ScalePaper} }

// Quick returns the reduced-scale configuration used by fast tests.
func Quick() Config { return Config{Scale: ScaleQuick} }
