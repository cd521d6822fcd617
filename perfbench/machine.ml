(* The host's state, recorded with every run so that a noisy run can be
   explained: the CPU model, the cores OCaml may use, and the share of CPU
   ticks the hypervisor stole while the run was going. *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | line -> go (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])

(* (steal, total) ticks of the aggregate "cpu" line of /proc/stat: user,
   nice, system, idle, iowait, irq, softirq, steal — guest time is already
   inside user. *)
type ticks = { steal : int; total : int }

let ticks () =
  match read_lines "/proc/stat" with
  | line :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields -> (
          match
            List.filteri (fun i _ -> i < 8) (List.filter_map int_of_string_opt fields)
          with
          | [ _; _; _; _; _; _; _; steal ] as first8 ->
              { steal; total = List.fold_left ( + ) 0 first8 }
          | _ -> { steal = 0; total = 0 })
      | _ -> { steal = 0; total = 0 })
  | [] -> { steal = 0; total = 0 }

let steal_frac ~since =
  let now = ticks () in
  let total = now.total - since.total in
  if total <= 0 then 0.0 else float_of_int (now.steal - since.steal) /. float_of_int total

let cpu_model () =
  let prefix = "model name" in
  match
    List.find_opt
      (fun l -> String.length l >= String.length prefix && String.sub l 0 10 = prefix)
      (read_lines "/proc/cpuinfo")
  with
  | Some l -> (
      match String.index_opt l ':' with
      | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
      | None -> "unknown")
  | None -> "unknown"

let nproc () = Domain.recommended_domain_count ()
