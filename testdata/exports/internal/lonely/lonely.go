// Package lonely is the fixture of the exported-name guard.
package lonely

// Imported is read by cmd/tool.
func Imported() int { return local() }

func local() int { return Local + int(busy) }

// Unread is read only by lonely_test.go.
const Unread = 2

// Local is read inside its own package.
const Local = 1

// state is an iota enum. Nothing reads its zero value, idle, and the guard
// lets it through: deleting it would renumber busy.
type state int

const (
	idle state = iota
	busy
)

// testOnly is read only by lonely_test.go.
func testOnly() int { return 3 }
