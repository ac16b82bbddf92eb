// Package lonely is the fixture of the exported-name guard.
package lonely

// Imported is read by cmd/tool.
func Imported() int { return local() }

func local() int { return Local }

// Unread is read only by lonely_test.go.
const Unread = 2

// Local is read inside its own package.
const Local = 1
