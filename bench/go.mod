module schism/bench

go 1.22

require schism v0.0.0

replace schism => ../
