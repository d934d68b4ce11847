type ctx = {
  id : Node_id.t;
  n : int option;
  diameter : int option;
  degree : int;
  input : int;
}

type 'm action = Broadcast of 'm | Decide of int

type ('s, 'm) hooks = {
  fingerprint : 's -> Fingerprint.t -> Fingerprint.t;
  fingerprint_msg : 'm -> Fingerprint.t -> Fingerprint.t;
  clone : 's -> 's;
}

type ('s, 'm) t = {
  name : string;
  init : ctx -> 's * 'm action list;
  on_receive : ctx -> 's -> 'm -> 'm action list;
  on_ack : ctx -> 's -> 'm action list;
  msg_ids : 'm -> int;
  hooks : ('s, 'm) hooks option;
}
