module psgl/benchmark

go 1.22

require psgl v0.0.0

replace psgl => ../
