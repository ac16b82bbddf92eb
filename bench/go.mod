module halo/bench

go 1.22

require halo v0.0.0

replace halo => ../
