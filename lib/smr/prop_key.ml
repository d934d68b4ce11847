(* inst + 1 in bits 0-29, the proposer in bits 30-39, the tag in bits
   40-61. *)
let pack ~tag ~proposer ~inst =
  if tag < 0 || tag >= 1 lsl 22 || proposer < 0 || proposer >= 1 lsl 10
     || inst < -1 || inst >= (1 lsl 30) - 1
  then
    invalid_arg
      (Printf.sprintf
         "Prop_key.pack: (tag %d, proposer %d, inst %d) outside 0..2^22-1, \
          0..1023, -1..2^30-2"
         tag proposer inst);
  (tag lsl 40) lor (proposer lsl 30) lor (inst + 1)

let unpack k = (k lsr 40, (k lsr 30) land 0x3FF, (k land 0x3FFFFFFF) - 1)
