package obs

import (
	"fmt"
	"log/slog"
	"os"
)

// SetupLogging installs the process-wide slog handler on stderr in the
// format a command's -log-format flag names: "text" (or empty) or "json".
func SetupLogging(format string) error {
	switch format {
	case "", "text":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
	return nil
}
