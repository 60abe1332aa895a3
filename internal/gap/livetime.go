package gap

import (
	"errors"
	"time"
)

var errNoFragments = errors.New("gap: no fragments")

func timeNow() time.Time                  { return time.Now() }
func timeSince(t time.Time) time.Duration { return time.Since(t) }

// Indirections shared by the live driver (kept tiny so tests can stub time).
var (
	nowFn   = timeNow
	sinceFn = timeSince
)
