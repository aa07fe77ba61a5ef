(* Single source of truth for the bench JSON schema tag. Before this
   constant existed the "xnav-bench/N" string was copy-pasted into every
   emitter and assertion and had to be bumped in lockstep; now the bench
   emitters, the --compare parser's expectations and the test that pins
   the committed baseline all read it from here. *)

let version = "xnav-bench/9"
