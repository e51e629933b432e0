/* Float constants survive `sulong ir` + `sulong run-ir` exactly. */
int main(void) {
  double d = 3.0 * 0.12345678912345;
  float f = 16777216.0f + 1.0f;
  printf("%.17g %.17g\n", d, (double)f);
  return 0;
}
