let pick01 rng = Amac.Rng.int rng 2

(* Two-phase (Sec 4.1): the attack surface is the status exchange. Flipping
   phase-1 values splits which evidence each victim sees; equivocating
   phase-2 statuses plants conflicting decided(v) claims. Sender ids are
   preserved — authenticated channels. *)
let two_phase : Consensus.Two_phase.msg Model.adapter =
  {
    mutate =
      (fun rng ~self:_ msg ->
        match msg with
        | Consensus.Two_phase.Phase1 { id; value } ->
            Consensus.Two_phase.Phase1 { id; value = 1 - value }
        | Consensus.Two_phase.Phase2 { id; _ } ->
            Consensus.Two_phase.Phase2
              { id; status = Consensus.Two_phase.Decided_value (pick01 rng) });
    forge =
      (fun rng ~self _seen ->
        Some
          (Consensus.Two_phase.Phase2
             {
               id = self;
               status = Consensus.Two_phase.Decided_value (pick01 rng);
             }));
  }

(* Byz-consensus: the algorithm under its OWN threat model. Mutations twist
   rounds and values, forgeries inject spurious EST/AUX — all with the true
   sender id (authenticated), which is exactly the adversary the f-counting
   thresholds must absorb. The fuzz campaign asserts it stays clean. *)
let byz_consensus : Consensus.Byz_consensus.msg Model.adapter =
  {
    mutate =
      (fun rng ~self:_ { Consensus.Byz_consensus.sender; body } ->
        let body =
          match body with
          | Consensus.Byz_consensus.Est { round; value } ->
              if Amac.Rng.bool rng then
                Consensus.Byz_consensus.Est { round; value = 1 - value }
              else
                Consensus.Byz_consensus.Est
                  { round = round + 1 + Amac.Rng.int rng 2; value }
          | Consensus.Byz_consensus.Aux { round; value } ->
              if Amac.Rng.bool rng then
                Consensus.Byz_consensus.Aux { round; value = 1 - value }
              else
                Consensus.Byz_consensus.Aux
                  { round = round + 1 + Amac.Rng.int rng 2; value }
        in
        { Consensus.Byz_consensus.sender; body });
    forge =
      (fun rng ~self _seen ->
        let round = Amac.Rng.int rng 4 and value = pick01 rng in
        Some
          {
            Consensus.Byz_consensus.sender = self;
            body =
              (if Amac.Rng.bool rng then
                 Consensus.Byz_consensus.Est { round; value }
               else Consensus.Byz_consensus.Aux { round; value });
          });
  }
