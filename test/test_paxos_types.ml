(* Proposal numbers, priors and the response wire format. The response
   merge (Lemma 4.2's local step) is tested on the live path, the
   service kit's queue, in test_services. *)

module P = Consensus.Paxos_types

let pno tag proposer = { P.tag; proposer }

let test_pno_order () =
  Alcotest.(check bool) "tag dominates" true (P.pno_lt (pno 1 9) (pno 2 0));
  Alcotest.(check bool) "id breaks ties" true (P.pno_lt (pno 3 1) (pno 3 2));
  Alcotest.(check bool) "equal" true (P.compare_pno (pno 3 1) (pno 3 1) = 0);
  Alcotest.(check bool) "le reflexive" true (P.pno_le (pno 3 1) (pno 3 1));
  Alcotest.(check bool) "not lt self" false (P.pno_lt (pno 3 1) (pno 3 1))

let test_proposition_order () =
  let open P in
  Alcotest.(check bool) "prepare < propose same pno" true
    (compare_proposition (pno 2 1, Prepare_round) (pno 2 1, Propose_round) < 0);
  Alcotest.(check bool) "higher pno wins over round" true
    (compare_proposition (pno 2 1, Propose_round) (pno 3 0, Prepare_round) < 0)

let test_max_prior () =
  let a = Some { P.pno = pno 2 1; value = 0 } in
  let b = Some { P.pno = pno 3 0; value = 1 } in
  Alcotest.(check bool) "picks higher pno" true (P.max_prior a b = b);
  Alcotest.(check bool) "commutes" true (P.max_prior b a = b);
  Alcotest.(check bool) "none identity" true (P.max_prior None a = a);
  Alcotest.(check bool) "both none" true (P.max_prior None None = None)

let test_max_committed () =
  let a = Some (pno 1 5) and b = Some (pno 2 0) in
  Alcotest.(check bool) "max" true (P.max_committed a b = b);
  Alcotest.(check bool) "none identity" true (P.max_committed b None = b)

let response ?(dest = 7) ?(target = 9) ?(p = pno 2 9) ?(round = P.Prepare_round)
    ?(positive = true) ?(count = 1) ?prior ?committed () =
  {
    P.dest;
    target;
    pno = p;
    round;
    positive;
    count;
    best_prior = prior;
    committed;
  }

let test_pp_smoke () =
  let s = P.pp_proposer_msg (P.Propose { pno = pno 4 2; value = 1 }) in
  Alcotest.(check bool) "mentions propose" true (String.length s > 6)

let test_id_accounting () =
  Alcotest.(check int) "prepare ids" 1 (P.proposer_msg_ids (P.Prepare (pno 1 2)));
  Alcotest.(check int) "bare response" 3 (P.response_ids (response ()));
  Alcotest.(check int) "with prior and committed" 5
    (P.response_ids
       (response ~prior:{ P.pno = pno 1 2; value = 0 } ~committed:(pno 2 2) ()))

let () =
  Alcotest.run "paxos_types"
    [
      ( "ordering",
        [
          Alcotest.test_case "pno order" `Quick test_pno_order;
          Alcotest.test_case "proposition order" `Quick test_proposition_order;
          Alcotest.test_case "max_prior" `Quick test_max_prior;
          Alcotest.test_case "max_committed" `Quick test_max_committed;
        ] );
      ( "misc",
        [
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
          Alcotest.test_case "id accounting" `Quick test_id_accounting;
        ] );
    ]
