package daemon

import (
	"context"

	"netsamp/internal/supervise"
)

// Serve is the supervised serve loop: each attempt re-opens the
// persistence directory (restoring from the newest checkpoint a previous
// attempt left behind) and runs until done or crash. This is what
// `netsamp serve` runs.
func Serve(ctx context.Context, cfg Config, sup *supervise.Supervisor) error {
	if sup == nil {
		sup = &supervise.Supervisor{}
	}
	return sup.Run(ctx, func(ctx context.Context, progress func()) error {
		loop, err := Open(cfg)
		if err != nil {
			return err
		}
		defer loop.Close()
		return loop.Run(ctx, progress)
	})
}
