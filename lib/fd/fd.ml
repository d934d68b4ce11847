type t = {
  me : int;
  patience : int;
  mutable my_hb : int;
  hb_seen : (int, int) Hashtbl.t;  (* node -> largest heartbeat seen *)
  suspect_at : (int, int) Hashtbl.t;  (* peer -> hb_seen at suspicion time *)
  mutable watched : int;
  mutable silence : int;
}

type verdict = Fresh | Fresh_cleared | Stale

type tick_verdict = Ok | Suspect

type stats = {
  suspected_now : int;
  watched : int;
  silence : int;
  patience_now : int;
}

let create ~patience ~me () =
  if patience < 1 then invalid_arg "Fd.create: patience must be >= 1";
  let t =
    {
      me;
      patience;
      my_hb = 0;
      hb_seen = Hashtbl.create 8;
      suspect_at = Hashtbl.create 8;
      watched = me;
      silence = 0;
    }
  in
  Hashtbl.replace t.hb_seen me 0;
  t

let beat t =
  t.my_hb <- t.my_hb + 1;
  Hashtbl.replace t.hb_seen t.me t.my_hb;
  t.my_hb

let hb t id = Option.value ~default:0 (Hashtbl.find_opt t.hb_seen id)

let suspected t id = Hashtbl.mem t.suspect_at id

let observe t ~peer ~hb =
  let seen = Option.value ~default:(-1) (Hashtbl.find_opt t.hb_seen peer) in
  if hb > seen then begin
    Hashtbl.replace t.hb_seen peer hb;
    if peer = t.watched then t.silence <- 0;
    match Hashtbl.find_opt t.suspect_at peer with
    | Some at when hb > at ->
        (* The heartbeat advanced past the suspicion stamp: the peer was
           alive after all (e.g. a loss window ate its traffic). *)
        Hashtbl.remove t.suspect_at peer;
        Fresh_cleared
    | Some _ | None -> Fresh
  end
  else Stale

let watch (t : t) ~peer =
  t.watched <- peer;
  t.silence <- 0

let tick (t : t) ~peer =
  if peer <> t.watched then watch t ~peer;
  t.silence <- t.silence + 1;
  if t.silence > t.patience && not (suspected t peer) then begin
    Hashtbl.replace t.suspect_at peer (hb t peer);
    Suspect
  end
  else Ok

let suspects t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.suspect_at []
  |> List.sort Int.compare

let candidate t ~base ~eligible =
  Hashtbl.fold
    (fun id _ best ->
      if eligible id && (not (suspected t id)) && id > best then id else best)
    t.hb_seen base

let stats t =
  {
    suspected_now = Hashtbl.length t.suspect_at;
    watched = t.watched;
    silence = t.silence;
    patience_now = t.patience;
  }

let record ~obs ~labels t =
  let s = stats t in
  Obs.Metrics.set
    (Obs.Metrics.gauge obs ~labels "fd_suspected_now")
    (float_of_int s.suspected_now);
  Obs.Metrics.set
    (Obs.Metrics.gauge obs ~labels "fd_silence_acks")
    (float_of_int s.silence);
  Obs.Metrics.set
    (Obs.Metrics.gauge obs ~labels "fd_patience_acks")
    (float_of_int s.patience_now)

module F = Amac.Fingerprint

let fp_int_tbl tbl acc =
  let entries = Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [] in
  let entries = List.sort compare entries in
  F.list (fun (k, v) acc -> acc |> F.int k |> F.int v) entries acc

let fingerprint t acc =
  acc |> F.int t.my_hb |> fp_int_tbl t.hb_seen |> fp_int_tbl t.suspect_at
  |> F.int t.watched |> F.int t.silence |> F.int t.patience

let clone t =
  {
    t with
    hb_seen = Hashtbl.copy t.hb_seen;
    suspect_at = Hashtbl.copy t.suspect_at;
  }
