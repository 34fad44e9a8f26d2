package xstream_test

import (
	"fastbfs/internal/core"
	"fastbfs/internal/storage"
	"fastbfs/internal/testenv"
	"fastbfs/internal/xstream"
)

// envRunXStream is core.RunXStream taking the FASTBFS_* settings of CI's
// matrix cells (internal/testenv) for whatever the test leaves unset.
func envRunXStream(vol storage.Volume, name string, o xstream.Options) (*xstream.Result, error) {
	return core.RunXStream(testenv.Volume(vol), name, testenv.Options(o))
}
