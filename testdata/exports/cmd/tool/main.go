package main

import "halo/internal/lonely"

func main() { println(lonely.Imported()) }
