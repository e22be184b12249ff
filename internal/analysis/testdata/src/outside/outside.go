// Package outside is out of every scoped analyzer's reach: clock reads
// and fire-and-forget goroutines here must produce no diagnostics.
package outside

import "time"

func stamp() time.Time { return time.Now() }

func spawn() {
	go stamp()
}
