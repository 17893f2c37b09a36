// Command app is the fixture's only caller.
package main

import "fixture/internal/fx"

func main() {
	var n fx.Namer = fx.T{}
	_ = n.Name()
	_ = fx.Run()
}
