int main(void) {
  union U { int i; char c[4]; } u;
  u.i = 0x41424344;
  return u.c[0];
}
