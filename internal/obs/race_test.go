//go:build race

package obs

// The race detector's sync.Pool drops items at random, so fmt's printer
// pool makes allocation counts vary from call to call.
func init() { raceEnabled = true }
