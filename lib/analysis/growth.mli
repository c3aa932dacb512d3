(** Growth-shape fitting: which asymptotic curve does a measured series
    follow?

    The evaluation's central question is qualitative — does the paper's
    counter's bottleneck grow like [k(n) = Theta(log n / log log n)]
    while the baselines grow like [sqrt n] or [n]? We fit each candidate
    shape [f] by least-squares scale [c] (minimising [sum (y - c f(n))^2])
    and report the normalised residual; the best (smallest) residual
    names the shape. This is deliberately simple: with 3-5 data points a
    honest "which curve fits best" beats any pretence of precision. *)

type shape =
  | Constant
  | Log  (** [log2 n] *)
  | K_of_n  (** the paper's [k]: real solution of [x^(x+1) = n] *)
  | Log_squared
  | Sqrt
  | Linear

val all_shapes : shape list

val shape_name : shape -> string

val eval : shape -> float -> float
(** [eval shape n]. *)

type fit = {
  shape : shape;
  scale : float;  (** Fitted [c]. *)
  residual : float;  (** Normalised RMS residual (lower = better). *)
}

val fit_shape : shape -> (float * float) list -> fit
(** Least-squares [c] for one shape over [(n, y)] points. *)

val best_fit : (float * float) list -> fit * fit list
(** Best shape and all fits, sorted best-first. Requires >= 2 points with
    distinct [n]. *)
