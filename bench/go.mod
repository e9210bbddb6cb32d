module netsamp/bench

go 1.22

require netsamp v0.0.0

replace netsamp => ../
