val x : int
