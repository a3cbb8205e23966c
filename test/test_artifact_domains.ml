(* Domain safety of the process-wide family artifact. Core.generate
   builds the artifact on first use; here four domains generate the same
   dialect at once, released together by a spin barrier, before anything
   else in the process has built it. Every call must succeed with the
   same dispatch summary, the artifact must be built once, and its
   instantiation counter must count all four products. *)

let domains = 4

let test_concurrent_first_use () =
  Alcotest.(check bool)
    "artifact not built before the domains start" true
    (Core.family_stats () = None);
  let waiting = Atomic.make domains in
  let generate () =
    Atomic.decr waiting;
    while Atomic.get waiting > 0 do
      Domain.cpu_relax ()
    done;
    Core.generate_dialect Dialects.Dialect.tinysql
  in
  let summaries =
    List.init domains (fun _ -> Domain.spawn generate)
    |> List.map Domain.join
    |> List.map (function
         | Ok g ->
           Fmt.str "%a" Parser_gen.Engine.pp_summary (Core.dispatch_summary g)
         | Error e -> Alcotest.failf "generate: %a" Core.pp_error e)
  in
  List.iter
    (Alcotest.(check string) "same dispatch summary" (List.hd summaries))
    summaries;
  match Core.family_stats () with
  | None -> Alcotest.fail "artifact not built"
  | Some s ->
    Alcotest.(check int) "instantiations" domains s.Family.instantiations

let () =
  Alcotest.run "artifact-domains"
    [
      ( "family",
        [
          Alcotest.test_case "concurrent first use from 4 domains" `Quick
            test_concurrent_first_use;
        ] );
    ]
