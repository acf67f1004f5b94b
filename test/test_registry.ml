(* Pins of the scheme registry (lib/reclaim/registry.ml) against the
   hand-written pairing tables and discipline rules it replaced.  Every
   value below was captured from those tables before they were deleted:
   each (variant, scheme) cell's assembled [scheme_name] ([None] where no
   campaign used the cell) and what the sanitizer derived from each
   scheme's capability flags.  A drift in any of them used to show up only
   as a changed sanitizer verdict. *)

module Registry = Reclaim.Registry
module D = Memory.Discipline

type pin = {
  exp1 : string option;
  exp2 : string;
  exp3 : string option;
  check : string;
  access : D.access;
  free : D.free;
  track_limbo : bool;
  quiescence : D.quiescence;
}

(* In registry order. *)
let pins =
  [
    ( "none",
      {
        exp1 = Some "none(direct,bump)";
        exp2 = "none(direct,bump)";
        exp3 = Some "none(direct,malloc)";
        check = "none(direct,bump)";
        access = Epoch;
        free = Skip;
        track_limbo = false;
        quiescence = Interval;
      } );
    ( "ebr",
      {
        exp1 = Some "ebr(direct,bump)";
        exp2 = "ebr(pool,bump)";
        exp3 = None;
        check = "ebr(pool,bump)";
        access = Epoch;
        free = Grace_session;
        track_limbo = true;
        quiescence = Interval;
      } );
    ( "qsbr",
      {
        exp1 = None;
        exp2 = "qsbr(pool,bump)";
        exp3 = None;
        check = "qsbr(pool,bump)";
        access = Epoch;
        free = Grace_qpoint;
        track_limbo = true;
        quiescence = Point;
      } );
    ( "debra",
      {
        exp1 = Some "debra(direct,bump)";
        exp2 = "debra(pool,bump)";
        exp3 = Some "debra(pool,malloc)";
        check = "debra(pool,bump)";
        access = Epoch;
        free = Grace_session;
        track_limbo = true;
        quiescence = Interval;
      } );
    ( "debra+",
      {
        exp1 = Some "debra+(direct,bump)";
        exp2 = "debra+(pool,bump)";
        exp3 = Some "debra+(pool,malloc)";
        check = "debra+(pool,bump)";
        access = Epoch;
        free = Grace_session;
        track_limbo = true;
        quiescence = Interval;
      } );
    ( "hp",
      {
        exp1 = Some "hp(direct,bump)";
        exp2 = "hp(pool,bump)";
        exp3 = Some "hp(pool,malloc)";
        check = "hp(direct,bump)";
        access = Hazard;
        free = Hazard_scan;
        track_limbo = true;
        quiescence = Interval;
      } );
    ( "rc",
      {
        exp1 = None;
        exp2 = "rc(pool,bump)";
        exp3 = None;
        check = "rc(direct,bump)";
        access = Hazard;
        free = Hazard_scan;
        track_limbo = true;
        quiescence = Interval;
      } );
    ( "threadscan",
      {
        exp1 = Some "threadscan(direct,bump)";
        exp2 = "threadscan(pool,bump)";
        exp3 = None;
        check = "threadscan(direct,bump)";
        access = Epoch;
        free = Hazard_scan;
        track_limbo = true;
        quiescence = Interval;
      } );
    ( "stacktrack",
      {
        exp1 = Some "stacktrack(direct,bump)";
        exp2 = "stacktrack(direct,recycle)";
        exp3 = None;
        check = "stacktrack(direct,recycle)";
        access = Lenient;
        free = Skip;
        track_limbo = true;
        quiescence = Interval;
      } );
    ( "vbr",
      {
        exp1 = None;
        exp2 = "vbr(direct,recycle)";
        exp3 = None;
        check = "vbr(direct,recycle)";
        access = Lenient;
        free = Skip;
        track_limbo = true;
        quiescence = Interval;
      } );
    ( "hyaline",
      {
        exp1 = None;
        exp2 = "hyaline(pool,bump)";
        exp3 = None;
        check = "hyaline(pool,bump)";
        access = Epoch;
        free = Grace_session;
        track_limbo = true;
        quiescence = Interval;
      } );
  ]

let scheme_name variant e =
  let (module RM : Reclaim.Intf.RECORD_MANAGER) = Registry.rm variant e in
  RM.scheme_name

let test_registered () =
  Alcotest.(check (list string)) "schemes, in order" (List.map fst pins)
    Registry.names

let test_pairings () =
  List.iter
    (fun (s, p) ->
      let e = Registry.find s in
      let cell label v expected =
        Option.iter
          (fun n ->
            Alcotest.(check string) (label ^ "/" ^ s) n (scheme_name v e))
          expected
      in
      cell "exp1" Exp1 p.exp1;
      cell "exp2" Exp2 (Some p.exp2);
      cell "exp3" Exp3 p.exp3;
      cell "check" Check (Some p.check))
    pins

let test_disciplines () =
  List.iter
    (fun (s, p) ->
      let d = (Registry.find s).Registry.discipline in
      Alcotest.(check bool) (s ^ " access") true (d.D.access = p.access);
      Alcotest.(check bool) (s ^ " free") true (d.D.free = p.free);
      Alcotest.(check bool) (s ^ " track_limbo") p.track_limbo
        d.D.track_limbo)
    pins

(* The discipline the sanitizer holds each scheme's assembled Record
   Manager to, read where the checkers read it. *)
let test_quiescence () =
  List.iter
    (fun (s, p) ->
      let module RM = (val Registry.rm Check (Registry.find s)) in
      Alcotest.(check bool)
        (s ^ " quiescence")
        true
        (RM.Reclaimer.discipline.D.quiescence = p.quiescence))
    pins

let () =
  Alcotest.run "registry"
    [
      ( "pins",
        [
          Alcotest.test_case "registered schemes" `Quick test_registered;
          Alcotest.test_case "pairings" `Quick test_pairings;
          Alcotest.test_case "disciplines" `Quick test_disciplines;
          Alcotest.test_case "quiescence" `Quick test_quiescence;
        ] );
    ]
