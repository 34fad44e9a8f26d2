package serve_test

import (
	"context"

	"fastbfs/internal/core"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/testenv"
)

// The service and engine entry points as this package's tests call
// them. Each takes the FASTBFS_* settings of CI's matrix cells
// (internal/testenv) for whatever the test leaves unset, so the
// race-serve, direction and codec cells reach every query.

func envOptions(o core.Options) core.Options {
	o.Base = testenv.Options(o.Base)
	o.ResidencyBudget = testenv.Residency(o.ResidencyBudget, core.ParseResidencyBudget)
	return o
}

func newService(vol storage.Volume, name string, cfg serve.Config) (*serve.GraphService, error) {
	cfg.Base = envOptions(cfg.Base)
	return serve.New(testenv.Volume(vol), name, cfg)
}

func runEngine(ctx context.Context, e serve.Engine, vol storage.Volume, name string, o core.Options) (*core.Result, error) {
	return serve.RunEngine(ctx, e, testenv.Volume(vol), name, envOptions(o))
}
